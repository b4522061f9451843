#include "dag/volume.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace mcf {

VolumeReport analyze_volume(const Schedule& s, const VolumeOptions& options) {
  MCF_CHECK(s.valid()) << "cannot analyze an invalid schedule";
  const ChainSpec& chain = s.chain();
  VolumeReport rep;
  rep.n_blocks = static_cast<double>(s.num_blocks());
  const double dtype = static_cast<double>(options.dtype_bytes);

  const auto stmts = s.statements_in_order();
  rep.stmts.reserve(stmts.size());
  for (const int idx : stmts) {
    const Statement& st = s.node(idx).stmt;
    StmtVolume v;
    v.node = idx;
    v.kind = st.kind;
    v.tensor = st.tensor;
    v.op = st.op;
    v.trips_per_block = s.trip_count(idx);

    if (st.kind == StmtKind::Compute) {
      const int op = st.op;
      v.tile_m = s.tiles()[0];
      v.tile_red = s.tiles()[static_cast<std::size_t>(chain.reduction_loop(op))];
      v.tile_col = s.tiles()[static_cast<std::size_t>(chain.out_col_loop(op))];
      v.flops_per_trip = 2.0 * static_cast<double>(v.tile_m) *
                         static_cast<double>(v.tile_red) *
                         static_cast<double>(v.tile_col);
      rep.flops += v.flops_per_trip * v.trips_per_block;

      // Epilogue on this op's output: executes once per completed tile,
      // i.e. the compute trips divided by the reduction extent.
      const Epilogue epi = chain.epilogue(op);
      if (epi != Epilogue::None) {
        const int red = chain.reduction_loop(op);
        const double red_ext =
            static_cast<double>(s.extents()[static_cast<std::size_t>(red)]);
        const double epi_trips = v.trips_per_block / std::max(1.0, red_ext);
        rep.epilogue_flops += epi_trips * epilogue_flops_per_elem(epi) *
                              static_cast<double>(v.tile_m) *
                              static_cast<double>(v.tile_col);
      }
      // Rescale when this op consumes an online-softmax output: the
      // accumulator is corrected on every streaming step.
      if (op > 0 && chain.epilogue(op - 1) == Epilogue::OnlineSoftmax) {
        rep.epilogue_flops += v.trips_per_block * kRescaleFlopsPerElem *
                              static_cast<double>(v.tile_m) *
                              static_cast<double>(v.tile_col);
      }
    } else {
      const int t = st.tensor;
      double bytes = static_cast<double>(s.tile_elems(t)) * dtype;
      for (const int l : st.covered_loops) {
        bytes *= static_cast<double>(s.extents()[static_cast<std::size_t>(l)]);
      }
      v.bytes_per_trip = bytes;
      // Contiguity: elements along the tensor's innermost (column) loop.
      const auto& loops = chain.tensor(t).loops;
      v.row_elems = s.tiles()[static_cast<std::size_t>(loops.back())];
      if (st.kind == StmtKind::Load) {
        rep.load_bytes += bytes * v.trips_per_block;
      } else {
        rep.store_bytes += bytes * v.trips_per_block;
      }
    }
    rep.stmt_trips += v.trips_per_block;
    rep.stmts.push_back(v);
  }

  // Scale per-block quantities to whole-kernel totals.
  rep.load_bytes *= rep.n_blocks;
  rep.store_bytes *= rep.n_blocks;
  rep.flops *= rep.n_blocks;
  rep.epilogue_flops *= rep.n_blocks;
  rep.stmt_trips *= rep.n_blocks;
  return rep;
}

}  // namespace mcf
