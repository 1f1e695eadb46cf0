#ifndef T2VEC_COMMON_LOGGING_H_
#define T2VEC_COMMON_LOGGING_H_

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>

/// \file
/// Tiny leveled logger. Training and experiment drivers use it for progress
/// reporting; it writes to stderr so that table output on stdout stays clean.
/// Safe from any thread: each line is formatted into one buffer and written
/// with a single stdio call, so lines from the server's dispatcher and
/// connection threads never interleave, and the level is atomic.

namespace t2vec {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Returns the global minimum level (default kInfo). Any thread may read or
/// store it.
inline std::atomic<LogLevel>& GlobalLogLevel() {
  static std::atomic<LogLevel> level{LogLevel::kInfo};
  return level;
}

/// printf-style logging to stderr, filtered by GlobalLogLevel().
inline void Logf(LogLevel level, const char* fmt, ...) {
  if (level < GlobalLogLevel().load(std::memory_order_relaxed)) return;
  const char* names[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  char stack_line[512];
  const int prefix = std::snprintf(stack_line, sizeof(stack_line), "[%s] ",
                                   names[static_cast<int>(level)]);
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);
  const int body = std::vsnprintf(stack_line + prefix,
                                  sizeof(stack_line) - prefix, fmt, args);
  va_end(args);
  if (body < 0) {
    va_end(retry);
    return;
  }
  // Prefix, body and newline; the body's terminating NUL becomes the '\n'.
  const size_t len = static_cast<size_t>(prefix + body) + 1;
  std::string heap_line;
  char* line = stack_line;
  if (len > sizeof(stack_line)) {
    heap_line.resize(len);
    std::memcpy(heap_line.data(), stack_line, static_cast<size_t>(prefix));
    std::vsnprintf(heap_line.data() + prefix, static_cast<size_t>(body) + 1,
                   fmt, retry);
    line = heap_line.data();
  }
  va_end(retry);
  line[len - 1] = '\n';
  std::fwrite(line, 1, len, stderr);
}

}  // namespace t2vec

#define T2VEC_LOG_DEBUG(...) ::t2vec::Logf(::t2vec::LogLevel::kDebug, __VA_ARGS__)
#define T2VEC_LOG_INFO(...) ::t2vec::Logf(::t2vec::LogLevel::kInfo, __VA_ARGS__)
#define T2VEC_LOG_WARN(...) ::t2vec::Logf(::t2vec::LogLevel::kWarn, __VA_ARGS__)
#define T2VEC_LOG_ERROR(...) ::t2vec::Logf(::t2vec::LogLevel::kError, __VA_ARGS__)

#endif  // T2VEC_COMMON_LOGGING_H_
