# Run BIN with the ;-separated ARGS and fail unless it exits with EXPECT.
# Usage: cmake -DBIN=<exe> -DARGS=<a;b> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${BIN} ${ARGS} RESULT_VARIABLE status)
if(NOT status STREQUAL EXPECT)
    message(FATAL_ERROR "${BIN} ${ARGS}: exit ${status}, expected ${EXPECT}")
endif()
