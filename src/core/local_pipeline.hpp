#pragma once
// Local Ocelot pipeline: real compression, modelled WAN.
//
// The examples and the hybrid benches run the actual compressor on
// generated data with a thread pool (real wall-clock compression and
// decompression), and put the resulting byte sizes through the
// calibrated GridFTP model for the WAN leg. This exercises the full
// Fig. 1 pipeline — load, parallel compress, (group,) transfer,
// parallel decompress, verify — end to end on one machine.

#include <string>
#include <vector>

#include "common/ndarray.hpp"
#include "compressor/config.hpp"
#include "core/adaptive.hpp"
#include "exec/cluster_model.hpp"
#include "exec/parallel_codec.hpp"
#include "io/file_store.hpp"
#include "netsim/gridftp.hpp"

namespace ocelot {

/// Pipeline parameters.
struct LocalPipelineConfig {
  CompressionConfig compression;
  std::size_t workers = 4;
  LinkProfile link;           ///< WAN route model for the transfer leg
  bool group_files = false;   ///< apply the grouping optimization
  std::size_t group_world_size = 8;
  /// Block-parallel codec: slabs per block along each field's slowest
  /// dimension (0 = whole-file tasks, the paper's executor).
  std::size_t block_slabs = 0;
  /// Online adaptive advisor: pick each block's backend / error bound
  /// through an AdvisorPolicy instead of compressing every block with
  /// `compression`. Implies block mode: block_slabs left at 0 takes
  /// default_block_slabs of the field with the smallest slabs (see
  /// Engine::compress_fields).
  bool adaptive = false;
  AdaptiveOptions adaptive_options;
};

/// Full pipeline outcome, with the direct-transfer baseline included.
struct LocalPipelineResult {
  ParallelCompressResult compression;
  TransferEstimate transfer;          ///< compressed payload over WAN
  TransferEstimate direct_transfer;   ///< baseline: raw files over WAN
  double decompress_seconds = 0.0;
  double max_error = 0.0;             ///< worst |orig-recon| across files
  double min_psnr_db = 0.0;           ///< worst PSNR across files
  std::size_t wire_files = 0;
  /// Per-backend block counts of the adaptive run (empty when the
  /// pipeline ran with a fixed backend).
  AdaptiveSummary adaptive;

  /// compression + transfer + decompression.
  [[nodiscard]] double total_seconds() const {
    return compression.wall_seconds + transfer.duration_s +
           decompress_seconds;
  }
  /// direct time / optimized total (the paper's speed-up framing).
  [[nodiscard]] double speedup() const {
    return direct_transfer.duration_s / total_seconds();
  }
};

/// Runs the pipeline on named fields; the destination store receives
/// the reconstructed fields (written via the OCF1 format).
LocalPipelineResult run_local_pipeline(
    const std::vector<std::string>& names,
    const std::vector<FloatArray>& fields, const LocalPipelineConfig& config,
    FileStore* destination = nullptr);

/// Converts a pipeline run's measured (de)compression walls into the
/// per-core throughputs the campaign/orchestrator timing model uses,
/// so virtual-time estimates consume real block-parallel measurements.
ComputeRates measured_compute_rates(const LocalPipelineResult& result,
                                    std::size_t workers);

}  // namespace ocelot
