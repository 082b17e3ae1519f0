# ctest: `getm-sim --metrics` and a one-point manifest run by getm-sweep
# must exit alike and write the same metrics document (getm-sim's file
# ends in one more newline). Points are bench|protocol|scale|check;
# HT-H is order-sensitive, so its check = ref replay reports
# REF_MISMATCH and both tools exit 3. Needs SIM_BIN, SWEEP_BIN, OUT_DIR.

set(work_dir "${OUT_DIR}/cli_sweep_parity_check")
file(REMOVE_RECURSE "${work_dir}")

foreach(spec "ATM|getm|0.02|" "HT-H|warptm|0.02|"
             "YCSB:theta=0.99|getm|0.02|serial" "HT-H|getm|0.01|ref")
    string(REGEX MATCH "^([^|]+)\\|([^|]+)\\|([^|]+)\\|(.*)$" _ "${spec}")
    set(bench "${CMAKE_MATCH_1}")
    set(protocol "${CMAKE_MATCH_2}")
    set(scale "${CMAKE_MATCH_3}")
    set(check "${CMAKE_MATCH_4}")
    string(MAKE_C_IDENTIFIER "${bench}_${protocol}_${check}" fixture)
    set(dir "${work_dir}/${fixture}")
    set(sim_args --bench ${bench} --protocol ${protocol} --scale ${scale})
    set(manifest "name = parity\nbench = ${bench}\nprotocol = ${protocol}\n"
                 "scale = ${scale}\n")
    if(check)
        list(APPEND sim_args --check=${check})
        string(APPEND manifest "check = ${check}\n")
    endif()
    file(WRITE "${dir}/point.sweep" ${manifest})

    execute_process(
        COMMAND "${SIM_BIN}" ${sim_args} --metrics "${dir}/sim.json" --json
        RESULT_VARIABLE sim_status OUTPUT_QUIET ERROR_VARIABLE sim_stderr)
    execute_process(
        COMMAND "${SWEEP_BIN}" --manifest "${dir}/point.sweep"
                --dir "${dir}/sweep" --jobs 1 --quiet
        RESULT_VARIABLE sweep_status OUTPUT_QUIET
        ERROR_VARIABLE sweep_stderr)
    if(NOT sim_status MATCHES "^[03]$" OR
       NOT sweep_status STREQUAL sim_status)
        message(FATAL_ERROR "${spec}: getm-sim exited ${sim_status}, "
                "getm-sweep ${sweep_status}:\n${sim_stderr}\n${sweep_stderr}")
    endif()

    file(GLOB sweep_doc_path "${dir}/sweep/points/*.json")
    file(READ "${dir}/sim.json" sim_doc)
    file(READ "${sweep_doc_path}" sweep_doc)
    string(REGEX REPLACE "\n$" "" sim_doc "${sim_doc}")
    if(NOT sim_doc STREQUAL sweep_doc)
        message(FATAL_ERROR "${spec}: getm-sim's metrics document differs "
                "from getm-sweep's ${sweep_doc_path}")
    endif()
    message(STATUS "${spec}: getm-sim and getm-sweep agree "
                   "(exit ${sim_status})")
endforeach()
