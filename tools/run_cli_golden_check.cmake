# getm-sim golden-output check driven by ctest: run each fixture and
# require its --json stdout line, its exit status and (where a golden
# exists) its full --metrics document to match the checked-in files in
# tests/golden/cli/ byte for byte.
#
# Fixtures at HT-H scale 0.05:
#   - plain_<protocol>: GETM, WarpTM-LL, WarpTM-EL and EAPG;
#   - instrumented: GETM under the runtime checker with every
#     transaction traced (stdout only; its metrics document carries
#     the full trace and is too large to check in);
#   - inject: GETM with a probabilistic fault (skip-rts-bump@0.5); the
#     corruption fails verification, so the run exits 3.
# Paper-scale fixtures, each well under a second, long and contended
# enough to catch a reordering of same-cycle work that the small runs
# miss:
#   - paper_ht-h_<protocol>: HT-H at scale 1.0 under GETM, WarpTM-LL
#     and EAPG;
#   - paper_cl_eapg: CL at scale 1.0 under EAPG, whose thousands of
#     early aborts and pauses pin the early-abort attribution and the
#     pause/retry path at scale;
#   - paper_ycsb-hot_getm: YCSB:theta=0.99 at scale 0.1 under GETM.
#
# Regenerate a golden only for an intended behaviour change, with the
# same command line as below, and say why in the commit.
#
# Expected variables:
#   SIM_BIN    - path to the getm-sim binary
#   GOLDEN_DIR - directory holding the golden files
#   OUT_DIR    - writable scratch directory

set(work_dir "${OUT_DIR}/cli_golden_check")
file(REMOVE_RECURSE "${work_dir}")
file(MAKE_DIRECTORY "${work_dir}")

set(fixtures
    plain_getm plain_warptm plain_warptm-el plain_eapg
    instrumented inject
    paper_ht-h_getm paper_ht-h_warptm paper_ht-h_eapg paper_cl_eapg
    paper_ycsb-hot_getm)

foreach(fixture ${fixtures})
    set(bench HT-H)
    set(scale 0.05)
    set(protocol getm)
    set(extra_args "")
    set(expect_status 0)
    if(fixture MATCHES "^plain_(.+)$")
        set(protocol "${CMAKE_MATCH_1}")
    elseif(fixture MATCHES "^paper_ht-h_(.+)$")
        set(scale 1.0)
        set(protocol "${CMAKE_MATCH_1}")
    elseif(fixture STREQUAL "paper_cl_eapg")
        set(bench CL)
        set(scale 1.0)
        set(protocol eapg)
    elseif(fixture STREQUAL "paper_ycsb-hot_getm")
        set(bench YCSB:theta=0.99)
        set(scale 0.1)
    elseif(fixture STREQUAL "instrumented")
        set(extra_args --check --trace-tx 1)
    elseif(fixture STREQUAL "inject")
        set(extra_args --inject=skip-rts-bump@0.5)
        set(expect_status 3)
    endif()

    set(prefix "${work_dir}/${fixture}")
    execute_process(
        COMMAND "${SIM_BIN}" --bench ${bench} --protocol ${protocol}
                --scale ${scale} --metrics "${prefix}.metrics.json" --json
                ${extra_args}
        RESULT_VARIABLE sim_status
        OUTPUT_FILE "${prefix}.stdout.json"
        ERROR_VARIABLE sim_stderr)
    if(NOT sim_status EQUAL expect_status)
        message(FATAL_ERROR
                "getm-sim (${fixture}) exited ${sim_status}, expected "
                "${expect_status}:\n${sim_stderr}")
    endif()

    foreach(kind stdout metrics)
        set(golden "${GOLDEN_DIR}/${fixture}.${kind}.json")
        if(NOT EXISTS "${golden}")
            continue()
        endif()
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    "${golden}" "${prefix}.${kind}.json"
            RESULT_VARIABLE same)
        if(NOT same EQUAL 0)
            message(FATAL_ERROR
                    "${fixture} ${kind} output differs from ${golden}")
        endif()
    endforeach()
    message(STATUS "${fixture}: matches the golden output")
endforeach()
