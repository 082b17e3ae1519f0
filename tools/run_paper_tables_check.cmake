# Paper-table check driven by ctest: run every figure manifest in
# configs/sweeps/ at reduced scale, render the tables with
# paper_tables.py, and require the output to equal
# tests/golden/paper_tables/*.txt concatenated in file-name order
# (which is the paper's figure order), byte for byte.
# At this scale every Fig. 13 row is 1.000 and the Fig. 14 table
# sizes tie, so those two panels are matched but not told apart.
#
# Each manifest is copied to OUT_DIR with `scale = 0.05` (0.0125 for
# Table IV, which runs at a quarter of the figure scale) and its
# `config =` path rebased onto the copy's directory (getm-sweep joins
# it to the manifest's directory even when it is absolute).
#
# Expected variables: SWEEP_BIN (getm-sweep), PYTHON, RENDERER
# (paper_tables.py), MANIFEST_DIR, GOLDEN_DIR, OUT_DIR (scratch).

set(work "${OUT_DIR}/paper_tables")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)

set(sweep_docs "")
foreach(name fig03_concurrency fig04_eager_vs_lazy fig10_12_protocols
             fig14_table_size fig14_granularity fig15_16_stalls
             fig17_scalability tab04_concurrency)
    file(READ "${MANIFEST_DIR}/${name}.sweep" text)
    set(scale 0.05)
    if(name STREQUAL "tab04_concurrency")
        set(scale 0.0125)
    endif()
    string(REGEX REPLACE "\nscale = [^\n]*" "\nscale = ${scale}"
           text "${text}")
    if(text MATCHES "\nconfig = ([^\n]*)")
        get_filename_component(config "${CMAKE_MATCH_1}" ABSOLUTE
                               BASE_DIR "${MANIFEST_DIR}")
        file(RELATIVE_PATH config "${work}" "${config}")
        string(REGEX REPLACE "\nconfig = [^\n]*" "\nconfig = ${config}"
               text "${text}")
    endif()
    file(WRITE "${work}/${name}.sweep" "${text}")
    execute_process(
        COMMAND "${SWEEP_BIN}" --manifest "${work}/${name}.sweep"
                --dir "${work}/${name}" --jobs "${jobs}" --quiet
        RESULT_VARIABLE status
        ERROR_VARIABLE output)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
                "getm-sweep ${name} failed (${status}):\n${output}")
    endif()
    list(APPEND sweep_docs "${work}/${name}/sweep.json")
endforeach()

execute_process(
    COMMAND "${PYTHON}" "${RENDERER}" ${sweep_docs}
    RESULT_VARIABLE status
    OUTPUT_FILE "${work}/rendered.txt"
    ERROR_VARIABLE output)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "paper_tables.py failed (${status}):\n${output}")
endif()

file(GLOB goldens "${GOLDEN_DIR}/*.txt")
list(SORT goldens)
file(WRITE "${work}/expected.txt" "")
foreach(golden IN LISTS goldens)
    file(READ "${golden}" text)
    file(APPEND "${work}/expected.txt" "${text}")
endforeach()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${work}/expected.txt" "${work}/rendered.txt"
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    file(READ "${work}/rendered.txt" rendered)
    message(FATAL_ERROR "paper_tables.py output differs from "
            "${work}/expected.txt (${GOLDEN_DIR}); rendered:\n${rendered}")
endif()
message(STATUS "paper tables match ${GOLDEN_DIR}")
