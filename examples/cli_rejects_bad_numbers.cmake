# Runs thsolve_cli with malformed numeric flag values and requires each run
# to stop at argument parsing with the usage exit code (2), instead of
# coercing the value to 0 or failing later inside the solver.
#
#   cmake -DCLI=<path to thsolve_cli> -P cli_rejects_bad_numbers.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to thsolve_cli>")
endif()

# One case per element, flag and value separated by '|'.
set(cases
  "--n|abc" "--n|0" "--ranks|x" "--block|0x" "--refine|-q"
  "--mem-gib|foo" "--mem-gib|-1" "--ckpt-write|1s" "--ckpt-interval|soon"
  "--ckpt-interval|0" "--serve-load|bar" "--serve-load|0" "--threads|4x")
foreach(item IN LISTS cases)
  string(REPLACE "|" ";" args "${item}")
  execute_process(COMMAND ${CLI} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    string(REPLACE "|" " " shown "${item}")
    message(FATAL_ERROR "thsolve_cli ${shown}: exit ${rc}, want 2")
  endif()
endforeach()
