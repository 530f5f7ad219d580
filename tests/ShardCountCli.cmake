# A shard count that is not a power of two in [1, 64] must be a CLI
# error in every build, not a run that silently homes nothing on some
# shards. Each tool gets --shards=3 and must exit non-zero naming the
# bad value. Invoked by ctest via the `shard_count_cli` test:
#
#   cmake -DOLTP_YCSB=<bin> -DMODEL_CTL=<bin> -DWORK_DIR=<dir>
#         -P ShardCountCli.cmake

foreach(VAR OLTP_YCSB MODEL_CTL WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "ShardCountCli.cmake: ${VAR} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_refused LABEL)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  if(RC EQUAL 0)
    message(FATAL_ERROR "${LABEL}: --shards=3 was accepted\n${OUT}${ERR}")
  endif()
  string(FIND "${ERR}" "3 is not a power of two" AT)
  if(AT EQUAL -1)
    message(FATAL_ERROR "${LABEL}: error does not name the shard count\n"
      "${OUT}${ERR}")
  endif()
  message(STATUS "${LABEL}: refused")
endfunction()

expect_refused(oltp_ycsb
  ${OLTP_YCSB} --shards=3 --threads=1 --records=1024 --ops=1024)
expect_refused(model_ctl
  ${MODEL_CTL} save --workload=kmeans --size=small --threads=2 --runs=1
  --shards=3 --out=${WORK_DIR}/refused.tsa)
