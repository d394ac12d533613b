# Run one exhibit bench and compare its stdout with a golden file byte
# for byte; on a mismatch, print the unified diff when `diff` exists.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file> -P exhibit_golden.cmake
#
# To re-baseline on purpose, overwrite the golden with the bench's
# stdout and review the diff.

execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUT})
    endif()
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
