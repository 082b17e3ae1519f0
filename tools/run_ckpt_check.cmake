# Checkpoint/restore determinism check driven by ctest: for every
# protocol (GETM, WarpTM-LL, WarpTM-EL, EAPG), with and without fault
# injection, run the same benchmark three ways:
#
#   base     uninterrupted, fully instrumented (--json stdout, metrics
#            document, timeline);
#   killed   identical instrumentation plus --checkpoint-every, cut
#            mid-flight by the --ckpt-kill-at crash hook (a SIGKILL
#            stand-in: std::_Exit, no cleanup, no final checkpoint);
#   restored --restore from the killed run's last snapshot.
#
# The contract (docs/DURABILITY.md): the restored run's stdout,
# metrics document, and timeline are byte-identical to base, the kill
# exits 137, and the restore genuinely resumes mid-kernel (cycle > 0,
# asserted via the "restored checkpoint ... (cycle N)" stderr line).
#
# Runs are executed inside per-run working directories so relative
# side-file paths -- which appear in stdout -- are identical bytes.
#
# Expected variables:
#   SIM_BIN - path to the getm-sim binary
#   OUT_DIR - writable scratch directory

set(work_dir "${OUT_DIR}/ckpt_check")
file(REMOVE_RECURSE "${work_dir}")
file(MAKE_DIRECTORY "${work_dir}")

set(kill_at 1500)
set(every 400)

foreach(protocol getm warptm warptm-el eapg)
    foreach(variant plain inject)
        set(fixture "${protocol}_${variant}")
        set(extra_args "")
        if(variant STREQUAL "inject")
            set(extra_args --inject=skip-validation@0.02)
        endif()
        set(common_args --bench HT-H --protocol ${protocol}
            --scale 0.05 --json --metrics m.json --timeline t.json
            ${extra_args})

        foreach(run base killed restored)
            set(run_dir "${work_dir}/${fixture}/${run}")
            file(MAKE_DIRECTORY "${run_dir}")
            set(run_args "${SIM_BIN}" ${common_args})
            if(run STREQUAL "killed")
                list(APPEND run_args
                     --checkpoint-every ${every}
                     --checkpoint-dir ckpt
                     --ckpt-kill-at ${kill_at})
            elseif(run STREQUAL "restored")
                list(APPEND run_args
                     --restore "${work_dir}/${fixture}/killed/ckpt")
            endif()
            execute_process(
                COMMAND ${run_args}
                WORKING_DIRECTORY "${run_dir}"
                RESULT_VARIABLE sim_status
                OUTPUT_FILE "${run_dir}/stdout.json"
                ERROR_VARIABLE sim_stderr)
            if(run STREQUAL "killed")
                if(NOT sim_status EQUAL 137)
                    message(FATAL_ERROR
                            "${fixture}: --ckpt-kill-at should "
                            "exit 137, got ${sim_status}:\n"
                            "${sim_stderr}")
                endif()
            else()
                if(NOT sim_status EQUAL 0)
                    message(FATAL_ERROR
                            "${fixture} (${run}) failed "
                            "(${sim_status}):\n${sim_stderr}")
                endif()
            endif()
            if(run STREQUAL "restored")
                if(NOT sim_stderr MATCHES
                   "restored checkpoint .* \\(cycle ([0-9]+)\\)")
                    message(FATAL_ERROR
                            "${fixture}: restore did not report "
                            "its resume cycle:\n${sim_stderr}")
                endif()
                if(CMAKE_MATCH_1 EQUAL 0)
                    message(FATAL_ERROR
                            "${fixture}: restore resumed at cycle "
                            "0 -- no mid-kernel state was loaded")
                endif()
            endif()
        endforeach()

        foreach(artifact "stdout.json" "m.json" "t.json")
            execute_process(
                COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${work_dir}/${fixture}/base/${artifact}"
                        "${work_dir}/${fixture}/restored/${artifact}"
                RESULT_VARIABLE same)
            if(NOT same EQUAL 0)
                message(FATAL_ERROR
                        "${fixture}: ${artifact} differs between "
                        "the uninterrupted and the kill+restore "
                        "run: the snapshot missed machine state "
                        "(docs/DURABILITY.md)")
            endif()
        endforeach()
        message(STATUS
                "${fixture}: kill at ${kill_at} + restore is "
                "byte-identical")
    endforeach()
endforeach()
