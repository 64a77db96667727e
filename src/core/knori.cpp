#include "core/knori.hpp"

#include "common/logger.hpp"
#include "common/memory_tracker.hpp"
#include "core/engine_impl.hpp"
#include "core/init.hpp"
#include "data/dataset.hpp"
#include "obs/span.hpp"

namespace knor {
namespace {

struct NumaData {
  const data::NumaDataset* ds;
  const value_t* row(index_t r) const { return ds->row(r); }
  int node_of_row(index_t r) const { return ds->node_of_row(r); }
};

}  // namespace

namespace detail {

Result run_node(ConstMatrixView data, const Options& opts,
                DenseMatrix initial, GlobalReducer* reducer,
                const ResumeState* resume, IterObserver* observer) {
  if (data.empty()) throw std::invalid_argument("kmeans: empty dataset");
  const auto topo = opts.numa_nodes > 0
                        ? numa::Topology::simulated(opts.numa_nodes)
                        : numa::Topology::detect();
  const int T = opts.threads > 0 ? opts.threads : topo.num_cpus();
  const index_t n = data.rows();
  const index_t d = data.cols();

  numa::Partitioner parts(n, T, topo);

  if (!opts.numa_aware) {
    // NUMA-oblivious baseline: unbound threads, data wherever the original
    // allocation's first touch put it (node 0 for accounting purposes).
    sched::Scheduler sched(T, topo, /*bind=*/false, opts.sched);
    detail::FlatData flat{data};
    detail::MemorySource<detail::FlatData> src{flat, parts, d};
    return detail::run_parallel_lloyd(src, n, d, opts, std::move(initial),
                                      sched, parts, reducer, resume,
                                      observer);
  }

  sched::Scheduler sched(T, topo, /*bind=*/opts.numa_bind, opts.sched);
  data::NumaDataset ds(data, parts, sched);
  ScopedAlloc mem_ds("dataset", ds.bytes());
  KNOR_LOG_DEBUG("knori: n=", n, " d=", d, " k=", opts.k, " T=", T,
                 " nodes=", topo.num_nodes(),
                 (opts.prune ? " mti=on" : " mti=off"));
  NumaData nd{&ds};
  detail::MemorySource<NumaData> src{nd, parts, d};
  return detail::run_parallel_lloyd(src, n, d, opts, std::move(initial), sched,
                                    parts, reducer, resume, observer);
}

}  // namespace detail

Result kmeans(ConstMatrixView data, const Options& opts) {
  if (data.empty()) throw std::invalid_argument("kmeans: empty dataset");
  DenseMatrix initial;
  {
    obs::Span span_init("init");
    initial = init_centroids(data, opts);
  }
  return detail::run_node(data, opts, std::move(initial), nullptr);
}

}  // namespace knor
