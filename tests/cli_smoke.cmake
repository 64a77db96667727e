# CLI smoke test (run via ctest): generate a tiny dataset, inspect it,
# cluster it with every mode (im / sem / dist), stream it through
# knor_stream (ingest / snapshot / resume / assign), serve it through
# knor_serve (closed / open load generators), and check exit codes —
# including the rejection paths of every strictly-parsed flag and env var.
# Invoked as:
#   cmake -DKNOR_CLI=<path> -DKNOR_STREAM=<path> -DKNOR_SERVE=<path>
#         -DKNOR_BENCH=<path> -DWORK_DIR=<dir> -P cli_smoke.cmake
if(NOT DEFINED KNOR_CLI OR NOT DEFINED KNOR_STREAM OR NOT DEFINED KNOR_SERVE
   OR NOT DEFINED KNOR_BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "cli_smoke: KNOR_CLI, KNOR_STREAM, KNOR_SERVE, KNOR_BENCH and "
          "WORK_DIR must be defined")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(DATA ${WORK_DIR}/tiny.kmat)

function(run_step name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "cli_smoke step '${name}' failed (exit ${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "cli_smoke ${name}: ok")
endfunction()

run_step(generate ${KNOR_CLI} generate --out ${DATA} --dist natural
         --n 800 --d 6 --components 4 --seed 7)
run_step(info ${KNOR_CLI} info ${DATA})
run_step(cluster_im ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 2)
# Scheduler controls: explicit thread count, pinning off, every policy, and
# an explicit task size, all plumbed through to the work-stealing scheduler.
run_step(cluster_im_unbound ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 3 --numa-bind off --task-size 128)
run_step(cluster_im_fifo ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 3 --sched fifo)
run_step(cluster_im_static ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 3 --sched static --numa-bind on)
# SIMD kernel ISA plumbing: explicit scalar (the legacy-bit-exact path),
# auto, and a vector ISA (clamps down gracefully on CPUs without it).
run_step(cluster_im_simd_scalar ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 2 --simd scalar)
run_step(cluster_im_simd_auto ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 2 --simd auto)
run_step(cluster_im_simd_avx2 ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 2 --simd avx2)
run_step(cluster_sem ${KNOR_CLI} cluster --data ${DATA} --mode sem
         --k 4 --iters 10 --threads 2 --page-kb 4 --row-cache-mb 1)
run_step(cluster_sem_sched ${KNOR_CLI} cluster --data ${DATA} --mode sem
         --k 4 --iters 10 --threads 2 --numa-bind off --sched fifo
         --page-kb 4 --row-cache-mb 1)
run_step(cluster_dist ${KNOR_CLI} cluster --data ${DATA} --mode dist
         --k 4 --iters 10 --ranks 2 --threads-per-rank 2
         --net-latency-us 20 --net-gbps 1.25)
run_step(cluster_dist_sched ${KNOR_CLI} cluster --data ${DATA} --mode dist
         --k 4 --iters 10 --ranks 2 --threads-per-rank 2 --sched static
         --numa-bind off)
run_step(cluster_dist_init_random ${KNOR_CLI} cluster --data ${DATA}
         --mode dist --k 4 --iters 10 --ranks 2 --init random)
# Fault-tolerant elastic knord (DESIGN.md §13): scripted crash + recovery,
# transient retries, graceful elasticity, checkpoint + resume.
set(FT_CKPT ${WORK_DIR}/ft.ckpt)
run_step(cluster_dist_ft_crash ${KNOR_CLI} cluster --data ${DATA}
         --mode dist --k 4 --iters 20 --ranks 4 --ckpt ${FT_CKPT}
         --fault-plan "crash@2:r1,flaky@3*2")
if(NOT EXISTS ${FT_CKPT})
  message(FATAL_ERROR "cli_smoke: FT run left no checkpoint file")
endif()
run_step(cluster_dist_ft_resume ${KNOR_CLI} cluster --data ${DATA}
         --mode dist --k 4 --iters 20 --ranks 3 --ckpt ${FT_CKPT} --resume)
run_step(cluster_dist_ft_elastic ${KNOR_CLI} cluster --data ${DATA}
         --mode dist --k 4 --iters 20 --ranks 3 --ckpt-every 2
         --fault-plan "leave@1:r2,join@2:r2,slow:r0*2")

# Streaming subsystem: ingest the dataset in small batches, snapshot, resume
# from the snapshot, inspect it, and serve assignments from both sources.
set(SNAP ${WORK_DIR}/stream.ckpt)
run_step(stream_ingest ${KNOR_STREAM} ingest --data ${DATA} --k 4
         --decay 0.9 --batch-rows 128 --threads 2 --snapshot ${SNAP})
run_step(stream_resume ${KNOR_STREAM} ingest --data ${DATA} --k 4
         --decay 0.9 --batch-rows 128 --threads 2 --snapshot ${SNAP}
         --resume)
run_step(stream_snapshot_info ${KNOR_STREAM} snapshot ${SNAP})
run_step(stream_assign_io ${KNOR_STREAM} assign --snapshot ${SNAP}
         --queries ${DATA} --out ${WORK_DIR}/assign.bin --batch-rows 256
         --threads 2 --source io)
run_step(stream_assign_page ${KNOR_STREAM} assign --snapshot ${SNAP}
         --queries ${DATA} --batch-rows 256 --threads 2 --source page
         --page-kb 4)

# Serving front end (knor_serve): both load-generator verbs at tiny scale,
# against the stream snapshot and against synthetic centroids.
run_step(serve_closed ${KNOR_SERVE} closed --snapshot ${SNAP}
         --clients 4 --requests 32 --rows 4 --threads 2
         --batch-window 64 --queue-depth 16)
run_step(serve_closed_direct ${KNOR_SERVE} closed --snapshot ${SNAP}
         --clients 2 --requests 16 --rows 4 --threads 2 --direct)
run_step(serve_closed_topm ${KNOR_SERVE} closed --k 8 --clients 2
         --requests 16 --rows 4 --topm-every 3 --m 2 --threads 2)
run_step(serve_open ${KNOR_SERVE} open --snapshot ${SNAP} --clients 2
         --requests 32 --rows 4 --arrival-rate 2000 --threads 2
         --shed-policy shed --queue-depth 8)

# A bad invocation must fail loudly, not silently succeed. Pass valid data
# so the only rejectable thing is the flag under test.
function(reject_step name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "cli_smoke: ${name} unexpectedly succeeded")
  endif()
  message(STATUS "cli_smoke ${name}: rejected as expected")
endfunction()

# Stricter form for usage()-routed rejections: the documented exit code is
# exactly 2 (not a crash, not a generic 1).
function(reject_step2 name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "cli_smoke: ${name} expected exit 2, got '${rc}'")
  endif()
  message(STATUS "cli_smoke ${name}: rejected with exit 2 as expected")
endfunction()

reject_step(bad_mode ${KNOR_CLI} cluster --data ${DATA} --mode bogus --k 2)
# An --init the engine cannot honour exits 2 instead of running forgy.
reject_step2(sem_init_kmeanspp ${KNOR_CLI} cluster --data ${DATA} --mode sem
             --k 4 --iters 2 --init kmeans++)
reject_step2(sem_init_random ${KNOR_CLI} cluster --data ${DATA} --mode sem
             --k 4 --iters 2 --init random)
# FT flags: a malformed fault plan exits 2 through usage(); a resume
# without a checkpoint path (or onto a missing file) must fail loudly.
reject_step2(bad_fault_plan ${KNOR_CLI} cluster --data ${DATA} --mode dist
             --k 2 --fault-plan "crash@0:r1")
reject_step2(bad_fault_plan_kind ${KNOR_CLI} cluster --data ${DATA}
             --mode dist --k 2 --fault-plan "meteor@3:r1")
reject_step(ft_resume_without_ckpt ${KNOR_CLI} cluster --data ${DATA}
            --mode dist --k 2 --resume)
reject_step(bad_numa_bind ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2
            --numa-bind sideways)
reject_step(bad_sched ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2
            --sched lottery)
reject_step(bad_simd ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2
            --simd quantum)
# knor_cli numerics share the strict parser (tools/cli_args.hpp) too.
reject_step(bad_iters ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2
            --iters abc)
reject_step(bad_tolerance ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2
            --tolerance loose)
# An unknown KNOR_SIMD env value must reject like the --simd flag does,
# never silently fall back to a different ISA.
reject_step(bad_simd_env ${CMAKE_COMMAND} -E env KNOR_SIMD=quantum
            ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2 --iters 2)
run_step(good_simd_env ${CMAKE_COMMAND} -E env KNOR_SIMD=scalar
         ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2 --iters 2)
# Blocked-GEMM engine plumbing: --algo selects it, --gemm-tile shapes the
# cache tile, and malformed tiles exit 2 through the strict parser rather
# than silently clustering under a different shape.
run_step(cluster_im_gemm ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 2 --algo gemm)
run_step(cluster_im_gemm_tile ${KNOR_CLI} cluster --data ${DATA} --mode im
         --k 4 --iters 10 --threads 2 --algo gemm --gemm-tile 32x16)
reject_step2(bad_algo ${KNOR_CLI} cluster --data ${DATA} --mode im --k 2
             --algo blas)
reject_step2(bad_gemm_tile ${KNOR_CLI} cluster --data ${DATA} --mode im
             --k 2 --algo gemm --gemm-tile 0x4)
reject_step2(bad_gemm_tile_nox ${KNOR_CLI} cluster --data ${DATA} --mode im
             --k 2 --algo gemm --gemm-tile 8)
reject_step2(bad_gemm_tile_tail ${KNOR_CLI} cluster --data ${DATA} --mode im
             --k 2 --algo gemm --gemm-tile 8x)
reject_step2(bad_gemm_tile_alpha ${KNOR_CLI} cluster --data ${DATA} --mode im
             --k 2 --algo gemm --gemm-tile axb)
reject_step2(bad_gemm_tile_neg ${KNOR_CLI} cluster --data ${DATA} --mode im
             --k 2 --algo gemm --gemm-tile 8x-4)

# knor_bench numeric flags are strictly parsed: `--repeats abc` used to
# atoi to 0 and "succeed" with no samples.
reject_step(bench_bad_repeats ${KNOR_BENCH} --suite kernels_micro
            --scale smoke --repeats abc)
reject_step(bench_bad_repeats_zero ${KNOR_BENCH} --suite kernels_micro
            --scale smoke --repeats 0)
reject_step(bench_bad_warmup ${KNOR_BENCH} --suite kernels_micro
            --scale smoke --warmup 1x)
reject_step(bench_bad_factor ${KNOR_BENCH} --suite kernels_micro
            --scale smoke --factor fast)

# knor_stream shares the strict-parsing contract.
reject_step(stream_bad_decay ${KNOR_STREAM} ingest --data ${DATA} --k 4
            --decay hot)
reject_step(stream_bad_decay_range ${KNOR_STREAM} ingest --data ${DATA}
            --k 4 --decay 1.5)
reject_step(stream_bad_batch_rows ${KNOR_STREAM} ingest --data ${DATA}
            --k 4 --batch-rows many)
# Negative counts must reject BEFORE the unsigned cast (a wrap once caused
# a buffer-sizing overflow in the page-source reader).
reject_step(stream_negative_batch_rows ${KNOR_STREAM} assign
            --snapshot ${SNAP} --queries ${DATA} --batch-rows -1
            --source page)
reject_step(stream_negative_io_buffers ${KNOR_STREAM} assign
            --snapshot ${SNAP} --queries ${DATA} --io-buffers -2)
reject_step(stream_bad_source ${KNOR_STREAM} assign --snapshot ${SNAP}
            --queries ${DATA} --source tape)
reject_step(stream_bad_simd ${KNOR_STREAM} ingest --data ${DATA} --k 4
            --simd quantum)
reject_step(stream_snapshot_every_without_path ${KNOR_STREAM} ingest
            --data ${DATA} --k 4 --snapshot-every 2)

# knor_serve shares tools/cli_args.hpp, so every numeric flag rejects junk,
# negatives, zero (where the minimum is 1) and overflow with exit 2 — a
# silently-zero --clients once meant "no load at all, exit 0".
reject_step(serve_bad_clients ${KNOR_SERVE} closed --snapshot ${SNAP}
            --clients many)
reject_step(serve_negative_clients ${KNOR_SERVE} closed --snapshot ${SNAP}
            --clients -4)
reject_step(serve_zero_clients ${KNOR_SERVE} closed --snapshot ${SNAP}
            --clients 0)
reject_step(serve_overflow_clients ${KNOR_SERVE} closed --snapshot ${SNAP}
            --clients 9223372036854775808)
reject_step(serve_bad_arrival_rate ${KNOR_SERVE} open --snapshot ${SNAP}
            --arrival-rate fast)
reject_step(serve_negative_arrival_rate ${KNOR_SERVE} open --snapshot ${SNAP}
            --arrival-rate -100)
reject_step(serve_zero_arrival_rate ${KNOR_SERVE} open --snapshot ${SNAP}
            --arrival-rate 0)
reject_step(serve_overflow_arrival_rate ${KNOR_SERVE} open --snapshot ${SNAP}
            --arrival-rate 1e999999)
reject_step(serve_bad_batch_window ${KNOR_SERVE} closed --snapshot ${SNAP}
            --batch-window huge)
reject_step(serve_negative_batch_window ${KNOR_SERVE} closed
            --snapshot ${SNAP} --batch-window -1)
reject_step(serve_zero_batch_window ${KNOR_SERVE} closed --snapshot ${SNAP}
            --batch-window 0)
reject_step(serve_overflow_batch_window ${KNOR_SERVE} closed
            --snapshot ${SNAP} --batch-window 9223372036854775808)
reject_step(serve_bad_shed_policy ${KNOR_SERVE} closed --snapshot ${SNAP}
            --shed-policy drop)
reject_step(serve_bad_model_sources ${KNOR_SERVE} closed --snapshot ${SNAP}
            --centroids ${DATA})
reject_step(serve_direct_open ${KNOR_SERVE} open --snapshot ${SNAP} --direct)
reject_step(serve_bad_pipeline ${KNOR_SERVE} closed --snapshot ${SNAP}
            --pipeline deep)
reject_step(serve_zero_pipeline ${KNOR_SERVE} closed --snapshot ${SNAP}
            --pipeline 0)
reject_step(serve_negative_pipeline ${KNOR_SERVE} closed --snapshot ${SNAP}
            --pipeline -2)
reject_step(serve_pipeline_open ${KNOR_SERVE} open --snapshot ${SNAP}
            --pipeline 4)
reject_step(serve_pipeline_direct ${KNOR_SERVE} closed --snapshot ${SNAP}
            --direct --pipeline 4)

# A flag nobody consulted is a typo, not a no-op: --rows-per-request
# (real flag: --rows) once silently did nothing while the run "succeeded"
# with the default. Every tool rejects unknown flags after its verb has
# read everything it understands.
reject_step(serve_unknown_flag ${KNOR_SERVE} closed --snapshot ${SNAP}
            --rows-per-request 4)
reject_step(stream_unknown_flag ${KNOR_STREAM} assign --queries ${DATA}
            --snapshot ${SNAP} --row-cache 4)
reject_step(cli_unknown_flag ${KNOR_CLI} cluster --gen natural --n 2000
            --d 4 --k 3 --iterations 5)

# Observability exports (DESIGN.md §10): --metrics / --trace must produce
# valid JSON, and the "deterministic" half of a metrics document must be
# bit-identical across two runs at the same thread count. knor_bench
# --strip both validates the JSON (it parses strictly) and canonicalizes
# it by deleting the "timing" object.
function(strip_to out in)
  execute_process(COMMAND ${KNOR_BENCH} --strip ${in}
                  OUTPUT_FILE ${out} RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cli_smoke: --strip ${in} failed:\n${err}")
  endif()
endfunction()

run_step(metrics_run1 ${KNOR_CLI} cluster --data ${DATA} --mode im --k 4
         --iters 10 --threads 4 --metrics ${WORK_DIR}/m1.json
         --trace ${WORK_DIR}/t1.json)
run_step(metrics_run2 ${KNOR_CLI} cluster --data ${DATA} --mode im --k 4
         --iters 10 --threads 4 --metrics ${WORK_DIR}/m2.json)
foreach(f m1.json t1.json m2.json)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "cli_smoke: expected export ${f} was not written")
  endif()
endforeach()
strip_to(${WORK_DIR}/m1.stripped ${WORK_DIR}/m1.json)
strip_to(${WORK_DIR}/m2.stripped ${WORK_DIR}/m2.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/m1.stripped ${WORK_DIR}/m2.stripped
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "cli_smoke: deterministic metrics differ across two identical "
          "runs (strip-diff)")
endif()
message(STATUS "cli_smoke metrics_strip_diff: ok")

# The env-var spelling (KNOR_METRICS / KNOR_TRACE) is equivalent to the
# flags; SEM and stream-assign exports carry their subsystem's metrics.
run_step(metrics_env ${CMAKE_COMMAND} -E env
         KNOR_METRICS=${WORK_DIR}/menv.json ${KNOR_CLI} cluster
         --data ${DATA} --mode sem --k 4 --iters 5 --threads 2
         --page-kb 4 --row-cache-mb 1)
if(NOT EXISTS ${WORK_DIR}/menv.json)
  message(FATAL_ERROR "cli_smoke: KNOR_METRICS export was not written")
endif()
run_step(stream_assign_metrics ${KNOR_STREAM} assign --snapshot ${SNAP}
         --queries ${DATA} --batch-rows 256 --threads 2
         --metrics ${WORK_DIR}/assign_metrics.json)
strip_to(${WORK_DIR}/assign_metrics.stripped ${WORK_DIR}/assign_metrics.json)
run_step(serve_metrics ${KNOR_SERVE} closed --snapshot ${SNAP} --clients 2
         --requests 16 --rows 4 --threads 2
         --metrics ${WORK_DIR}/serve_metrics.json
         --trace ${WORK_DIR}/serve_trace.json)
strip_to(${WORK_DIR}/serve_metrics.stripped ${WORK_DIR}/serve_metrics.json)
# An unwritable export path must fail the command, never print success
# over a missing file.
reject_step(bad_metrics_path ${KNOR_CLI} cluster --data ${DATA} --mode im
            --k 2 --iters 2 --metrics ${WORK_DIR}/no_such_dir/m.json)

# KNOR_LOG / KNOR_LOG_FORMAT are strictly parsed, like KNOR_SIMD above.
reject_step(bad_log_env ${CMAKE_COMMAND} -E env KNOR_LOG=verbose
            ${KNOR_CLI} info ${DATA})
reject_step(bad_log_format_env ${CMAKE_COMMAND} -E env KNOR_LOG_FORMAT=fancy
            ${KNOR_CLI} info ${DATA})
reject_step(stream_bad_log_env ${CMAKE_COMMAND} -E env KNOR_LOG=verbose
            ${KNOR_STREAM} snapshot ${SNAP})
run_step(good_log_env ${CMAKE_COMMAND} -E env KNOR_LOG=debug
         KNOR_LOG_FORMAT=full ${KNOR_CLI} info ${DATA})

file(REMOVE_RECURSE ${WORK_DIR})
