#pragma once
// End-to-end transfer campaigns (the Fig. 1 pipeline, evaluated in
// Table VIII and Fig. 16).
//
// A campaign moves one application's file inventory from a source site
// to a destination site in one of three modes:
//   kDirect            (paper's NP)  raw files, no compression
//   kCompressedPerFile (paper's CP)  parallel compression, one
//                                    compressed file per input
//   kCompressedGrouped (paper's OP)  compression + file grouping
//
// The campaign runs in virtual time: funcX dispatch starts the remote
// compression, the cluster cost model yields (de)compression
// makespans, and the Globus/GridFTP model yields transfer time.

#include <string>

#include "core/workload.hpp"
#include "faas/funcx.hpp"
#include "netsim/gridftp.hpp"
#include "netsim/sites.hpp"

namespace ocelot {

enum class TransferMode {
  kDirect = 0,
  kCompressedPerFile = 1,
  kCompressedGrouped = 2,
};

std::string to_string(TransferMode mode);

/// Campaign parameters.
struct CampaignConfig {
  std::string src = "Anvil";
  std::string dst = "Cori";
  int compress_nodes = 16;
  int compress_cores_per_node = 128;
  int decompress_nodes = 8;
  int decompress_cores_per_node = 32;
  /// Achieved compression ratio (measured on real data by the caller,
  /// or predicted by the quality model).
  double compression_ratio = 8.0;
  /// Per-core throughputs; calibrate_rates()/measured_compute_rates()
  /// derive these from a real block-parallel run.
  ComputeRates rates;
  /// Block-parallel codec block size in raw bytes: each file becomes
  /// ceil(size / block_bytes) compute tasks, so the (de)compression
  /// makespan keeps scaling when cores outnumber files. 0 = the
  /// paper's whole-file executor.
  double block_bytes = 0.0;
  /// Files per group for kCompressedGrouped ("world size" strategy).
  std::size_t group_world_size = 96;
  /// Online adaptive advisor (core/adaptive.hpp) enabled for the
  /// compression stage: the virtual-time model charges the advisor's
  /// per-block feature-sampling / calibration overhead on top of the
  /// block compute. `compression_ratio` should then carry the ratio a
  /// measured adaptive run achieved (measured_compute_rates bridges
  /// the real run into these knobs).
  bool adaptive = false;
  /// Fractional compression-stage overhead of the advisor hot path
  /// (strided feature pass + per-field calibration probes).
  double adaptive_overhead = 0.03;
  /// funcX endpoint cost structure for the remote orchestration.
  /// Ocelot keeps campaign containers warm (Section III-C), so the
  /// default cold-start charge is the warm-pool replenishment cost.
  FuncXEndpointConfig faas{/*name=*/"", /*dispatch_latency_s=*/0.12,
                           /*cold_start_s=*/0.5, /*warm_overhead_s=*/0.01};
};

/// Timing breakdown of one campaign.
struct CampaignReport {
  TransferMode mode = TransferMode::kDirect;
  double transfer_seconds = 0.0;      ///< WAN time (T in Table VIII)
  double effective_speed_bps = 0.0;   ///< transferred bytes / transfer time
  double compress_seconds = 0.0;      ///< CPTime
  double decompress_seconds = 0.0;    ///< DPTime
  double orchestration_seconds = 0.0; ///< funcX dispatch + container costs
  double node_wait_seconds = 0.0;     ///< time queued for compute nodes
  double total_seconds = 0.0;         ///< Total T
  std::size_t files_transferred = 0;
  double bytes_transferred = 0.0;
};

/// Runs one campaign in virtual time and returns the breakdown.
CampaignReport run_campaign(const FileInventory& inventory, TransferMode mode,
                            const CampaignConfig& config);

/// Convenience: (T(NP) - TotalT) / T(NP), the paper's "Gain".
double campaign_gain(const CampaignReport& direct,
                     const CampaignReport& optimized);

}  // namespace ocelot
