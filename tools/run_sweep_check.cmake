# Serial-vs-parallel sweep determinism check driven by ctest: run the
# smoke sweep once with --jobs 1 and once with --jobs 4 into separate
# directories, require the merged sweep.json bytes to be identical, and
# validate the merged document with check_metrics.py. A third run with
# --trace-tx 1 must also produce byte-identical sweep.json (tracing is
# observe-only and the trace lives in side files) plus one
# points/<id>.trace.json per point.
#
# Expected variables:
#   SWEEP_BIN - path to the getm-sweep binary
#   MANIFEST  - path to the sweep manifest to run
#   CHECKER   - path to check_metrics.py ("" to skip validation)
#   PYTHON    - python3 interpreter ("" to skip validation)
#   OUT_DIR   - writable scratch directory
#   GOLDEN    - optional checked-in golden sweep.json; when set, the
#               serial merged output must be byte-identical to it, so
#               any refactor that changes a single stat byte fails here

set(serial_dir "${OUT_DIR}/sweep_check_serial")
set(parallel_dir "${OUT_DIR}/sweep_check_parallel")
set(traced_dir "${OUT_DIR}/sweep_check_traced")
file(REMOVE_RECURSE "${serial_dir}" "${parallel_dir}" "${traced_dir}")

foreach(run "serial;1" "parallel;4" "traced;2;--trace-tx;1")
    list(GET run 0 label)
    list(GET run 1 jobs)
    set(extra_args "${run}")
    list(REMOVE_AT extra_args 0 1)
    execute_process(
        COMMAND "${SWEEP_BIN}" --manifest "${MANIFEST}"
                --dir "${OUT_DIR}/sweep_check_${label}"
                --jobs "${jobs}" --quiet ${extra_args}
        RESULT_VARIABLE sweep_status
        OUTPUT_VARIABLE sweep_output
        ERROR_VARIABLE sweep_output)
    if(NOT sweep_status EQUAL 0)
        message(FATAL_ERROR
                "getm-sweep (${label}, --jobs ${jobs}) failed "
                "(${sweep_status}):\n${sweep_output}")
    endif()
    message(STATUS "${sweep_output}")
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${serial_dir}/sweep.json" "${parallel_dir}/sweep.json"
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "merged sweep.json differs between --jobs 1 and --jobs 4: "
            "per-point isolation or merge ordering is broken")
endif()
message(STATUS "serial and parallel sweep.json are byte-identical")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${serial_dir}/sweep.json" "${traced_dir}/sweep.json"
    RESULT_VARIABLE same_traced)
if(NOT same_traced EQUAL 0)
    message(FATAL_ERROR
            "merged sweep.json differs with --trace-tx 1: the tracer "
            "perturbed simulated timing or leaked into the metrics "
            "documents (it must be observe-only, with traces in "
            "points/<id>.trace.json side files)")
endif()
file(GLOB trace_files "${traced_dir}/points/*.trace.json")
list(LENGTH trace_files num_traces)
if(num_traces EQUAL 0)
    message(FATAL_ERROR
            "--trace-tx 1 wrote no points/*.trace.json side files")
endif()
message(STATUS
        "traced sweep.json is byte-identical; ${num_traces} trace side "
        "file(s) written")

if(DEFINED GOLDEN AND NOT GOLDEN STREQUAL "")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${serial_dir}/sweep.json" "${GOLDEN}"
        RESULT_VARIABLE same_golden)
    if(NOT same_golden EQUAL 0)
        message(FATAL_ERROR
                "sweep.json differs from the golden fixture ${GOLDEN}: "
                "simulated behavior or the metrics schema changed. If "
                "intentional, regenerate the fixture from "
                "${serial_dir}/sweep.json and explain the change in the "
                "commit message")
    endif()
    message(STATUS "sweep.json matches the golden fixture")
endif()

if(PYTHON AND CHECKER)
    execute_process(
        COMMAND "${PYTHON}" "${CHECKER}" "${serial_dir}/sweep.json"
                ${trace_files}
        RESULT_VARIABLE check_status
        OUTPUT_VARIABLE check_output
        ERROR_VARIABLE check_output)
    if(NOT check_status EQUAL 0)
        message(FATAL_ERROR
                "check_metrics.py failed (${check_status}):\n"
                "${check_output}")
    endif()
    message(STATUS "${check_output}")
endif()
