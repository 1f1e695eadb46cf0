# Usage: cmake -DCLI=<path to t2vec_cli> -P cli_unknown_flags_test.cmake
#
# expect_error(<message> <flag> <value> <args>...) runs
# `t2vec_cli <args>... --<flag> [<value>]` and requires a non-zero exit with
# <message> on stderr. The model and data paths do not exist, so a run that
# got past the flag check would fail with another message.

function(expect_error message flag value)
  execute_process(COMMAND "${CLI}" ${ARGN} --${flag} ${value}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(status EQUAL 0)
    message(FATAL_ERROR "t2vec_cli ${ARGN} --${flag} ${value} exited 0\n"
                        "${out}")
  endif()
  string(FIND "${err}" "${message}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "t2vec_cli ${ARGN} --${flag} ${value}: stderr does "
                        "not say \"${message}\"\n${err}")
  endif()
endfunction()

# A flag the subcommand does not read: the retired int8 encoder switch, on
# both subcommands that took it.
expect_error("unknown flag --quantized" quantized ""
             server --model missing.t2vec --data-dir missing_dir)
expect_error("unknown flag --quantized" quantized ""
             serve-bench --model missing.t2vec --data missing.txt)
# A typo of --nprobe; consuming its value must not hide it.
expect_error("unknown flag --nprob" nprob 4
             knn --model missing.t2vec --data missing.txt)

# A number that does not parse whole, overflows, or is out of its flag's
# range fails before any file is read.
expect_error("invalid value for --k: abc" k abc
             knn --model missing.t2vec --data missing.txt)
expect_error("invalid value for --k: 5x" k 5x
             knn --model missing.t2vec --data missing.txt)
expect_error("invalid value for --k: 99999999999999999999" k
             99999999999999999999
             knn --model missing.t2vec --data missing.txt)
expect_error("invalid value for --query-index: x1" query-index x1
             knn --model missing.t2vec --data missing.txt)
expect_error("invalid value for --max-batch: 0" max-batch 0
             server --model missing.t2vec --data-dir missing_dir)
expect_error("invalid value for --port: 70000" port 70000
             server --model missing.t2vec --data-dir missing_dir)
expect_error("invalid value for --window-us: -5" window-us -5
             serve-bench --model missing.t2vec --data missing.txt)
expect_error("invalid value for --drop: 0.5.1" drop 0.5.1
             reconstruct --model missing.t2vec --data missing.txt)
expect_error("--drop must be in [0, 1)" drop 1.5
             reconstruct --model missing.t2vec --data missing.txt)
# A switch takes no value: "--no-pretrain false" must not disable pretraining.
expect_error("invalid value for --no-pretrain: false" no-pretrain false
             train --data missing.txt --model missing.t2vec)
# An argument that is neither a flag nor a flag's value ("--seed 1 9").
expect_error("unexpected argument 9" seed "1;9"
             generate --out missing_dir/out.txt)
