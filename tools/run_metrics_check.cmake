# End-to-end metrics check driven by ctest: run the simulator with
# --metrics and validate the emitted document with check_metrics.py.
# The run is traced (--trace-tx 1, observe-only), so the embedded
# tx_trace section and its bounds against the run's tx_exec/tx_wait
# counters are validated too.
#
# Expected variables:
#   SIM_BIN  - path to the getm-sim binary
#   CHECKER  - path to check_metrics.py
#   PYTHON   - python3 interpreter
#   OUT_DIR  - writable scratch directory

set(metrics_file "${OUT_DIR}/metrics_check.json")

execute_process(
    COMMAND "${SIM_BIN}" --bench HT-H --protocol getm --scale 0.05
            --trace-tx 1 --metrics "${metrics_file}"
    RESULT_VARIABLE sim_status
    OUTPUT_VARIABLE sim_output
    ERROR_VARIABLE sim_output)
if(NOT sim_status EQUAL 0)
    message(FATAL_ERROR "getm-sim failed (${sim_status}):\n${sim_output}")
endif()

execute_process(
    COMMAND "${PYTHON}" "${CHECKER}" "${metrics_file}"
    RESULT_VARIABLE check_status
    OUTPUT_VARIABLE check_output
    ERROR_VARIABLE check_output)
if(NOT check_status EQUAL 0)
    message(FATAL_ERROR
            "check_metrics.py failed (${check_status}):\n${check_output}")
endif()
message(STATUS "${check_output}")
