# Drives the CLI through generate -> build -> stats -> query, then checks
# strict numeric arguments and the taxonomy.snap.bak last-good fallback.
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})

# Runs `${CLI} <args>` and fails unless its exit code is `expected`
# ("nonzero" accepts any failure). The output lands in `cli_out`.
function(run_cli expected)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expected STREQUAL "nonzero")
    if(rc EQUAL 0)
      message(FATAL_ERROR "cnprobase_cli ${ARGN} succeeded; expected failure")
    endif()
  elseif(NOT rc EQUAL expected)
    message(FATAL_ERROR "cnprobase_cli ${ARGN} exited ${rc}, expected "
                        "${expected}\n${out}${err}")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
endfunction()

run_cli(0 generate ${DIR} 800)
run_cli(0 build ${DIR})
run_cli(0 stats ${DIR})
run_cli(0 query ${DIR} 歌手)

# Garbage numbers are usage errors, never a silent 0.
run_cli(2 build ${DIR} --max-load-errors abc)
run_cli(2 generate ${DIR}/unused 12x)

# A second build keeps the first snapshot as taxonomy.snap.bak; with the
# primary corrupt, stats and query answer from it.
run_cli(0 build ${DIR})
if(NOT EXISTS ${DIR}/taxonomy.snap.bak)
  message(FATAL_ERROR "second build left no taxonomy.snap.bak")
endif()
file(WRITE ${DIR}/taxonomy.snap "not a snapshot")
run_cli(0 stats ${DIR})
if(NOT cli_out MATCHES "entities:")
  message(FATAL_ERROR "stats from .bak printed no report:\n${cli_out}")
endif()
run_cli(0 query ${DIR} 歌手)
if(NOT cli_out MATCHES "hypernyms:")
  message(FATAL_ERROR "query from .bak did not resolve 歌手:\n${cli_out}")
endif()

# With neither file there is nothing to serve.
file(REMOVE ${DIR}/taxonomy.snap ${DIR}/taxonomy.snap.bak)
run_cli(nonzero query ${DIR} 歌手)
