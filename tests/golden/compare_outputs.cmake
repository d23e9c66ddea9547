# Runs each paper-output binary and byte-compares its stdout against the
# committed golden file of the same name (tests/golden/<binary>.txt).
#
#   cmake -DBIN_DIR=<dir with the binaries> -DGOLDEN_DIR=<this dir>
#         -DOUT_DIR=<scratch dir> -DBINARIES=a;b;c -P compare_outputs.cmake
#
# A mismatch leaves the actual output in OUT_DIR/<binary>.actual.txt and
# prints a unified diff against the golden when `diff` is available.
set(failed "")
foreach(bin IN LISTS BINARIES)
  set(golden ${GOLDEN_DIR}/${bin}.txt)
  set(actual ${OUT_DIR}/${bin}.actual.txt)
  execute_process(COMMAND ${BIN_DIR}/${bin}
                  OUTPUT_FILE ${actual}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${bin} exited with ${rc}")
    list(APPEND failed ${bin})
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${golden} ${actual}
                  RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR "${bin}: stdout differs from ${golden}")
    find_program(DIFF diff)
    if(DIFF)
      execute_process(COMMAND ${DIFF} -u ${golden} ${actual})
    endif()
    list(APPEND failed ${bin})
  else()
    message(STATUS "${bin}: matches ${golden}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "paper outputs moved: ${failed}")
endif()
