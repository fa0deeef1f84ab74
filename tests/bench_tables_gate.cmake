# Regenerates the paper's tables and gates them: runs bench_tables
# --json-dir=OUT_DIR, then check_bench_regression.py on the five
# committed/fresh BENCH_{table2..5,ablation}.json pairs (move counts
# bit-identical, analysis counters decrease-only). Fails on a non-zero
# exit from either.
#
#   cmake -DBENCH_TABLES=<bench_tables> -DPYTHON=<python3>
#         -DSOURCE_DIR=<repo root> -DOUT_DIR=<dir> -P bench_tables_gate.cmake
execute_process(
  COMMAND "${BENCH_TABLES}" "--json-dir=${OUT_DIR}"
  OUTPUT_QUIET
  ERROR_VARIABLE Err
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "bench_tables exited with ${Status}:\n${Err}")
endif()

set(Pairs)
foreach(Table table2 table3 table4 table5 ablation)
  list(APPEND Pairs "${SOURCE_DIR}/BENCH_${Table}.json"
                    "${OUT_DIR}/BENCH_${Table}.json")
endforeach()
execute_process(
  COMMAND "${PYTHON}" "${SOURCE_DIR}/scripts/check_bench_regression.py"
          ${Pairs}
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${Out}${Err}")
endif()
message(STATUS "${Out}")
