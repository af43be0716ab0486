# Re-records the tracked perf artifacts in one deterministic pass:
#
#   bench/perf_baseline.h   (perf_core --baseline-header, commit auto-filled)
#   BENCH_core.json         (perf_core + perf_scale sections)
#
# Invoked by the `bench-record` target with -DSRC_DIR / -DBENCH_BIN_DIR.
# Each bench merge-preserves the others' sections, so the order below only
# matters for wall-clock: perf_core first, since it also writes the header.
# Both run serially (execute_process) — the gated numbers are
# wall-clock rates and must not share the box.

foreach(var SRC_DIR BENCH_BIN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench/record.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND git -C ${SRC_DIR} rev-parse --short HEAD
  OUTPUT_VARIABLE COMMIT
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE GIT_RC)
if(NOT GIT_RC EQUAL 0)
  set(COMMIT "unrecorded")
endif()

set(OUT_JSON ${SRC_DIR}/BENCH_core.json)

message(STATUS "bench-record: perf_core @ ${COMMIT}")
execute_process(
  COMMAND ${BENCH_BIN_DIR}/perf_core --out ${OUT_JSON}
          --baseline-header ${SRC_DIR}/bench/perf_baseline.h --commit ${COMMIT}
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "perf_core failed (${RC})")
endif()

message(STATUS "bench-record: perf_scale (with memory-flatness gate)")
execute_process(
  COMMAND ${BENCH_BIN_DIR}/perf_scale --gate --out ${OUT_JSON}
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "perf_scale failed (${RC})")
endif()

message(STATUS "bench-record: done — ${OUT_JSON} and bench/perf_baseline.h updated.")
message(STATUS "Rebuild to compile the new baseline into the perf gates.")
