// Fixture: every banned CPU-count probe fires raw-thread-count.
// Never compiled — scanned by lint_test.py.
#include <sys/sysinfo.h>
#include <unistd.h>

#include <thread>

// Mentions in comments stay quiet: hardware_concurrency() get_nprocs()
const char* kDoc = "sysconf(_SC_NPROCESSORS_ONLN) in a string stays quiet";

int Probes() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int online = get_nprocs();
  const int configured = get_nprocs_conf();
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(hw) + online + configured + static_cast<int>(cpus);
}
