# Runs lao-opt end to end on a small non-SSA input and requires both the
# counter registry dump (--stats, stderr) and the --run equivalence
# verdict (stdout) in its output, plus a zero exit status.
#
#   cmake -DLAO_OPT=<lao-opt> -DINPUT=<file.lai> -P lao_opt_smoke.cmake
execute_process(
  COMMAND "${LAO_OPT}" --ssa --pipeline=Lphi,ABI+C --stats --run 5,9
          "${INPUT}"
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "lao-opt exited with ${Status}:\n${Out}${Err}")
endif()
foreach(Pattern "translate\\.phi_copies" "matches input program: yes")
  if(NOT "${Out}${Err}" MATCHES "${Pattern}")
    message(FATAL_ERROR "lao-opt output lacks '${Pattern}':\n${Out}${Err}")
  endif()
endforeach()
