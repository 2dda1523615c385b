# Fails unless the external symbols the SIMD kernel objects define are
# exactly their KernelTables (see tests/CMakeLists.txt).
#
#   cmake -DNM=<nm> -DOBJECTS=<obj>|<obj>... -P check_kernel_exports.cmake
cmake_minimum_required(VERSION 3.16)
string(REPLACE "|" ";" objects "${OBJECTS}")
set(allowed "ihw::simd::detail::kAvx2Table" "ihw::simd::detail::kAvx512Table")
set(found "")
set(unexpected "")
foreach(obj IN LISTS objects)
  execute_process(
    COMMAND "${NM}" --defined-only --extern-only --demangle "${obj}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-fA-F]+ [A-Za-z] (.+)$")
      if(CMAKE_MATCH_1 IN_LIST allowed)
        list(APPEND found "${CMAKE_MATCH_1}")
      else()
        list(APPEND unexpected "${obj}: ${CMAKE_MATCH_1}")
      endif()
    endif()
  endforeach()
endforeach()
if(unexpected)
  list(JOIN unexpected "\n  " msg)
  message(FATAL_ERROR
          "SIMD kernel objects export more than their tables:\n  ${msg}")
endif()
foreach(sym IN LISTS allowed)
  if(NOT sym IN_LIST found)
    message(FATAL_ERROR "no kernel object defines ${sym}")
  endif()
endforeach()
message(STATUS "kernel objects export only: ${found}")
