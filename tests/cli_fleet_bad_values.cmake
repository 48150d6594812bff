# Runs `ocelot simulate` on malformed values, in fleet mode and in
# campaign specs: each run must exit non-zero and name the offending
# key ("bad <key> value").
#   cmake -DOCELOT=path/to/ocelot -P tests/cli_fleet_bad_values.cmake
if(NOT OCELOT)
  message(FATAL_ERROR "pass -DOCELOT=<path to the ocelot binary>")
endif()

function(expect_rejected key)
  execute_process(COMMAND ${OCELOT} simulate ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(rc EQUAL 0)
    message(FATAL_ERROR "'simulate ${ARGN}' exited 0:\n${out}")
  endif()
  if(NOT err MATCHES "bad ${key} value")
    message(FATAL_ERROR
            "'simulate ${ARGN}' (exit ${rc}) did not report "
            "'bad ${key} value':\n${err}")
  endif()
endfunction()

expect_rejected(campaigns campaigns=-1)
expect_rejected(campaigns campaigns=5x)
expect_rejected(seed campaigns=5 seed=-2)
expect_rejected(prio app=RTM,prio=1x)
expect_rejected(nodes app=RTM,nodes=16abc)
expect_rejected(ratio app=RTM,ratio=12junk)
expect_rejected(at app=RTM,at=abc)
expect_rejected(nodes app=RTM,nodes=-4)
