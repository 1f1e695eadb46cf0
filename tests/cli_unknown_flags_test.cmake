# Usage: cmake -DCLI=<path to t2vec_cli> -P cli_unknown_flags_test.cmake
#
# expect_rejected(<flag> <value> <args>...) runs
# `t2vec_cli <args>... --<flag> [<value>]` and requires a non-zero exit with
# "unknown flag --<flag>" on stderr. The model and data paths do not exist,
# so a run that got past the flag check would fail with another message.

function(expect_rejected flag value)
  execute_process(COMMAND "${CLI}" ${ARGN} --${flag} ${value}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(status EQUAL 0)
    message(FATAL_ERROR "t2vec_cli ${ARGN} --${flag} exited 0\n${out}")
  endif()
  if(NOT err MATCHES "unknown flag --${flag}")
    message(FATAL_ERROR "t2vec_cli ${ARGN} --${flag}: stderr does not name "
                        "the flag\n${err}")
  endif()
endfunction()

# The retired int8 encoder switch, on both subcommands that took it.
expect_rejected(quantized "" server --model missing.t2vec
                --data-dir missing_dir)
expect_rejected(quantized "" serve-bench --model missing.t2vec
                --data missing.txt)
# A typo of --nprobe; consuming its value must not hide it.
expect_rejected(nprob 4 knn --model missing.t2vec --data missing.txt)
