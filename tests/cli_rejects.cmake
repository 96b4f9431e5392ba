# CLI contract check: runs one tool invocation and passes only when the
# tool exits 1 and prints "error: --<flag>" on stderr, where <flag> is the
# first "--" word of the arguments.
#
#   cmake -DTOOL=<path> -DARGS="<args>" -P cli_rejects.cmake
string(REGEX MATCH "--[a-z-]+" flag "${ARGS}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got '${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "error: ${flag}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks 'error: ${flag}':\n${err}")
endif()
