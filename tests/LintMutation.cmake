# Mutation self-test for the stm_lint memory-ordering pass (ctest
# lint_mutation). Copies the engine sources into a scratch tree, applies
# one ordering mutant at a time — deleting the seq_cst fence from each
# single-fence commit path, downgrading a version-publish release store
# to relaxed — and asserts stm_lint fails each mutant with the right
# O-rule and path label, while the pristine copy stays clean. This is
# the executable proof that re-removing the 5343567 store-buffering
# fence cannot land silently.
#
# Inputs: -DSTM_LINT=<stm_lint binary> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<scratch dir>

foreach(VAR STM_LINT SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "LintMutation.cmake: ${VAR} not set")
  endif()
endforeach()

# Fresh copy of every directory the ordering contracts live in.
function(reset_tree)
  file(REMOVE_RECURSE ${WORK_DIR}/src)
  file(COPY ${SOURCE_DIR}/src/stm ${SOURCE_DIR}/src/libtm
            ${SOURCE_DIR}/src/engine ${SOURCE_DIR}/src/shard
       DESTINATION ${WORK_DIR}/src)
endfunction()

# Applies one textual mutant; a MATCH that no longer appears in FILE is
# a hard error — the mutation corpus must never rot into no-ops.
function(mutate FILE MATCH REPLACE)
  file(READ ${WORK_DIR}/${FILE} OLD)
  string(REPLACE "${MATCH}" "${REPLACE}" NEW "${OLD}")
  if(NEW STREQUAL OLD)
    message(FATAL_ERROR
      "lint_mutation: pattern not found in ${FILE}: ${MATCH}")
  endif()
  file(WRITE ${WORK_DIR}/${FILE} "${NEW}")
endfunction()

# Runs stm_lint over the scratch tree and asserts exit code + output.
function(run_lint LABEL EXPECT_RC)
  execute_process(
    COMMAND ${STM_LINT} --root=${WORK_DIR} src
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  if(NOT RC EQUAL ${EXPECT_RC})
    message(FATAL_ERROR "lint_mutation[${LABEL}]: expected exit "
      "${EXPECT_RC}, got ${RC}\n${OUT}${ERR}")
  endif()
  foreach(PATTERN ${ARGN})
    string(FIND "${OUT}" "${PATTERN}" AT)
    if(AT EQUAL -1)
      message(FATAL_ERROR "lint_mutation[${LABEL}]: output lacks "
        "\"${PATTERN}\"\n${OUT}${ERR}")
    endif()
  endforeach()
  message(STATUS "lint_mutation[${LABEL}]: ok")
endfunction()

set(SEQ_FENCE "std::atomic_thread_fence(std::memory_order_seq_cst);")

# Control: the pristine tree must be clean, or every mutant result is
# noise.
reset_tree()
run_lint(pristine 0)

# Fence deletion from each single-fence commit path -> O3 names the path.
# TL2, orec-eager and LibTm share one commit tail
# (OrecEagerPolicy::publish), so one mutant covers all three engines; its
# contract label names them.
set(OREC_PUBLISH_LABEL
    "OrecEagerPolicy::publish single-fence commit of tl2, orec-eager and libtm")
reset_tree()
mutate(src/engine/OrecEager.h "${SEQ_FENCE}" "")
run_lint(tl2-orec-fence-removed 1 "[O3]" "${OREC_PUBLISH_LABEL}")

reset_tree()
mutate(src/shard/Sharded.cpp "${SEQ_FENCE}" "")
run_lint(shard-fence-removed 1 "[O3]"
         "ShardedTxn::commitOrThrow cross-shard 2PC")

# Weakening the fence is as fatal as deleting it.
reset_tree()
mutate(src/engine/OrecEager.h "${SEQ_FENCE}"
       "std::atomic_thread_fence(std::memory_order_acquire);")
run_lint(tl2-orec-fence-weakened 1 "[O3]" "${OREC_PUBLISH_LABEL}")

reset_tree()
mutate(src/shard/Sharded.cpp "${SEQ_FENCE}"
       "std::atomic_thread_fence(std::memory_order_acquire);")
run_lint(shard-fence-weakened 1 "[O3]"
         "ShardedTxn::commitOrThrow cross-shard 2PC")

# Downgrading the coordinated publish's grouped release stripe stores to
# relaxed (the torn-fault and standard walks share the spelling) leaves
# no dominating release fence on the standard path -> O1 via the
# publish(Stripe) contract on the cached stripe pointers.
reset_tree()
mutate(src/shard/Sharded.cpp
       "Acquired[J].Stripe->store(LockTable::encodeVersion(Wv),
                                    std::memory_order_release);"
       "Acquired[J].Stripe->store(LockTable::encodeVersion(Wv),
                                    std::memory_order_relaxed);")
run_lint(shard-torn-publish 1 "[O1]" "Stripe")

# Torn publish: downgrading the standard-ordering version publish to
# relaxed leaves no dominating release fence -> O1 via the publish(Orec)
# contract on the held-orec pointers, on the publish loop of the commit
# tail TL2, orec-eager and LibTm share (the torn-fault mutant walks the
# same loop).
reset_tree()
mutate(src/engine/OrecEager.h
       "L.Orec->store(LockTable::encodeVersion(Wv),
                      std::memory_order_release);"
       "L.Orec->store(LockTable::encodeVersion(Wv),
                      std::memory_order_relaxed);")
run_lint(tl2-orec-torn-publish 1 "[O1]" "Orec" "src/engine/OrecEager.h")

reset_tree()
message(STATUS "lint_mutation: all mutants flagged, pristine clean")
