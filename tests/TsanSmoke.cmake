# Configures, builds, and runs a ThreadSanitizer smoke of the concurrency
# tests in a dedicated sub-build (-DGSTM_ENABLE_TSAN=ON). Invoked by ctest
# via the `tsan_smoke` test registered in tests/CMakeLists.txt:
#
#   cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<build>/tsan-smoke -P TsanSmoke.cmake
#
# The smoke focuses on the racy-by-construction paths: the sharded stats
# subsystem (single-writer relaxed increments, concurrent aggregation) and
# the TL2 and LibTm runtimes' multi-threaded tests. A data race anywhere in those
# paths makes TSan exit non-zero and fails the test.

if(NOT SOURCE_DIR OR NOT BUILD_DIR)
  message(FATAL_ERROR
      "usage: cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<dir> -P TsanSmoke.cmake")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DGSTM_ENABLE_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE ConfigureRc)
if(NOT ConfigureRc EQUAL 0)
  message(FATAL_ERROR "tsan sub-build configure failed (${ConfigureRc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
          --target stats_test tl2_test libtm_test minivector_test
                   latency_histogram_test tmds_test engine_test shard_test
  RESULT_VARIABLE BuildRc)
if(NOT BuildRc EQUAL 0)
  message(FATAL_ERROR "tsan sub-build compile failed (${BuildRc})")
endif()

# halt_on_error makes the first race fatal instead of a warning, so the
# exit code reflects it even if the test logic would still pass.
set(ENV{TSAN_OPTIONS} "halt_on_error=1")

execute_process(
  COMMAND ${BUILD_DIR}/tests/stats_test
          --gtest_filter=StatsShardTest.*:StatsAttributionTest.*
  RESULT_VARIABLE StatsRc)
if(NOT StatsRc EQUAL 0)
  message(FATAL_ERROR "stats_test failed under tsan (${StatsRc})")
endif()

# The concurrent TL2 tests run with EngineConfig::SingleFenceCommit at
# its default (on), so TSan checks the fence-based commit publication of
# the tail TL2 shares with orec-eager — the relaxed stripe-version stores
# behind one release fence — against real racing readers.
execute_process(
  COMMAND ${BUILD_DIR}/tests/tl2_test
          --gtest_filter=Tl2Test.Concurrent*:Tl2Test.BankTransfer*:Tl2Test.Snapshot*:Tl2Test.AbortEvents*
  RESULT_VARIABLE Tl2Rc)
if(NOT Tl2Rc EQUAL 0)
  message(FATAL_ERROR "tl2_test failed under tsan (${Tl2Rc})")
endif()

# LibTm publishes through the same shared commit tail — relaxed
# metadata-word stores behind one release fence — and SynQuake relies on
# its multi-word object snapshots never tearing: the concurrent counter,
# snapshot, cross-object and observer tests race real writers against
# those snapshot reads.
execute_process(
  COMMAND ${BUILD_DIR}/tests/libtm_test
          --gtest_filter=LibTmTest.ConcurrentCounters*:LibTmTest.Snapshot*:LibTmTest.CrossObject*:LibTmTest.Observer*
  RESULT_VARIABLE LibTmRc)
if(NOT LibTmRc EQUAL 0)
  message(FATAL_ERROR "libtm_test failed under tsan (${LibTmRc})")
endif()

# The transactional skiplist/B-tree publish pool-allocated nodes through
# STM stores while peers traverse them; the partitioned-mutation test
# races real inserts/removes across threads. The histogram's merge path
# (per-thread recording, post-join merge) rides along — both are exactly
# where an unsynchronized publish would hide.
execute_process(
  COMMAND ${BUILD_DIR}/tests/tmds_test
          --gtest_filter=TmdsTest/*.ConcurrentPartitionedMutationIsExact
  RESULT_VARIABLE TmdsRc)
if(NOT TmdsRc EQUAL 0)
  message(FATAL_ERROR "tmds_test failed under tsan (${TmdsRc})")
endif()

# The engine family's racy-by-construction paths: TLRW's Dekker
# reader/writer handshake and drain loop, orec CAS acquisition against
# racing validators, 2PL's no-wait lock word traffic, and the epoch
# manager's enter/exit vs quiesce protocol.
execute_process(
  COMMAND ${BUILD_DIR}/tests/engine_test
  RESULT_VARIABLE EngineRc)
if(NOT EngineRc EQUAL 0)
  message(FATAL_ERROR "engine_test failed under tsan (${EngineRc})")
endif()
execute_process(
  COMMAND ${BUILD_DIR}/tests/latency_histogram_test
  RESULT_VARIABLE HistRc)
if(NOT HistRc EQUAL 0)
  message(FATAL_ERROR "latency_histogram_test failed under tsan (${HistRc})")
endif()

# The sharded tier's cross-shard 2PC publishes one commit through
# several lock tables and applied clocks behind a single release fence;
# the concurrent-increments test races four real writer threads through
# that path, and the steering listener's SPSC lanes ride along. TSan
# sees the relaxed stripe stores directly against racing validators.
execute_process(
  COMMAND ${BUILD_DIR}/tests/shard_test
          --gtest_filter=TwoShardFixture.*:SteeringTest.*
  RESULT_VARIABLE ShardRc)
if(NOT ShardRc EQUAL 0)
  message(FATAL_ERROR "shard_test failed under tsan (${ShardRc})")
endif()

# Containers are single-owner by design; running their suite under TSan
# asserts that no hidden sharing crept into the grow/clear paths.
execute_process(
  COMMAND ${BUILD_DIR}/tests/minivector_test
  RESULT_VARIABLE MiniRc)
if(NOT MiniRc EQUAL 0)
  message(FATAL_ERROR "minivector_test failed under tsan (${MiniRc})")
endif()

message(STATUS "tsan smoke passed")
