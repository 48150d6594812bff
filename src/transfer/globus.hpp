#pragma once
// Globus-style transfer service over the simulation engine.
//
// Accepts transfer tasks (a list of file sizes over a route), drives
// them through the GridFTP model in virtual time, exposes per-file
// completion so the sentinel can learn which files already moved, and
// supports cancellation mid-flight (the sentinel stops the
// uncompressed transfer when compute nodes are granted).
//
// The WAN is a contended resource: all tasks submitted on the same
// route draw from one FairShareChannel whose capacity is the link's
// aggregate bandwidth. A task's demand is its uncontended GridFTP
// effective bandwidth, so a transfer running alone reproduces the
// closed-form estimate exactly, while concurrent transfers stretch
// max-min fairly.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/inline_function.hpp"
#include "netsim/gridftp.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"

namespace ocelot {

/// A submitted transfer request.
struct TransferRequest {
  std::string label;
  LinkProfile link;
  std::vector<double> file_bytes;
};

/// Live handle to a transfer task in the simulation.
class TransferTask {
 public:
  enum class Status { kActive, kSucceeded, kCancelled };
  using Callback = InlineFunction<void(const TransferTask&), 64>;

  [[nodiscard]] Status status() const { return status_; }

  /// The *uncontended* cost model for this task (duration if alone).
  [[nodiscard]] const TransferEstimate& estimate() const { return estimate_; }
  [[nodiscard]] double submitted_at() const { return submitted_at_; }

  /// Wall completion time; only meaningful once status is kSucceeded.
  [[nodiscard]] double completed_at() const { return completed_at_; }

  /// Actual elapsed transfer time (== estimate().duration_s when the
  /// link was uncontended for the task's whole life).
  [[nodiscard]] double actual_duration() const {
    return completed_at_ - submitted_at_;
  }

  /// Number of files fully transferred by virtual time `t`.
  [[nodiscard]] std::size_t completed_files_at(double t) const;

  /// Bytes fully transferred by virtual time `t` (whole files only).
  [[nodiscard]] double completed_bytes_at(double t) const;

  /// Cancels the task; files completed before `now` stay transferred,
  /// and the flow's bandwidth share is released immediately.
  void cancel(double now);

 private:
  friend class GlobusService;

  /// Completion offset of file `i` from submission (kNever if the
  /// flow ended before that file's payload was delivered).
  [[nodiscard]] double file_completion_offset(std::size_t i) const;

  Status status_ = Status::kActive;
  TransferEstimate estimate_;
  Callback on_complete_;
  std::vector<double> file_bytes_;
  /// Cumulative solo-service seconds needed for files [0..i].
  std::vector<double> data_service_;
  double submitted_at_ = 0.0;
  double cancelled_at_ = 0.0;
  double completed_at_ = 0.0;
  bool service_done_ = false;
  sim::FairShareChannel* channel_ = nullptr;
  sim::FairShareChannel::FlowId flow_ = 0;
  sim::EventHandle completion_event_;
};

/// The transfer service facade. One service owns one fair-share
/// channel per route, shared by every task it carries.
class GlobusService {
 public:
  explicit GlobusService(sim::Engine& sim, EndpointSettings settings = {})
      : sim_(sim), model_(settings) {}

  /// Submits a transfer; `on_complete` fires at finish (not on cancel).
  /// Takes the request by value so callers can move the file list in.
  std::shared_ptr<TransferTask> submit(TransferRequest request,
                                       TransferTask::Callback on_complete = {});

  [[nodiscard]] const GridFtpModel& model() const { return model_; }

  /// The fair-share channel carrying `link`'s traffic, created on
  /// first use — exposed so failure injectors (sim::LinkFlap) can
  /// attach to a route before or after transfers start on it.
  sim::FairShareChannel& channel_for(const LinkProfile& link);

  /// The per-route fair-share channels created so far (keyed by link
  /// name), for utilization/concurrency reporting.
  [[nodiscard]] const std::map<std::string,
                               std::unique_ptr<sim::FairShareChannel>>&
  channels() const {
    return channels_;
  }

 private:
  sim::Engine& sim_;
  GridFtpModel model_;
  std::map<std::string, std::unique_ptr<sim::FairShareChannel>> channels_;
};

}  // namespace ocelot
