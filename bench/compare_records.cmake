# Byte-compare committed bench records with fresh runs.
#   cmake -D "RECORDS=<committed>;<fresh>[;<committed>;<fresh>...]" \
#         -P compare_records.cmake
# Fails naming every committed record its fresh run does not reproduce.
list(LENGTH RECORDS n)
math(EXPR last "${n} - 1")
set(drifted "")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET RECORDS ${i} committed)
  list(GET RECORDS ${j} fresh)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${committed} ${fresh}
                  RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(STATUS "matches: ${committed}")
  else()
    list(APPEND drifted ${committed})
  endif()
endforeach()
if(drifted)
  message(FATAL_ERROR "fresh runs differ from the committed records: "
                      "${drifted}")
endif()
