#include "workload/sim_run.h"

#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace bestpeer::workload {

SimRun::SimRun(const ObsOptions& options, const FaultRecoveryOptions& fault,
               uint64_t seed, sim::NetworkOptions net) {
  const char* flight_out = std::getenv("BP_FLIGHT_OUT");
  if (options.trace || std::getenv("BP_TRACE_OUT") != nullptr) {
    simulator_.EnableTracing();
  }
  size_t flight_capacity = options.flight_capacity;
  if (flight_capacity == 0 && flight_out != nullptr) {
    flight_capacity = obs::FlightRecorderOptions{}.capacity;
  }
  if (flight_capacity > 0) {
    // Before any protocol stack registers message-type names, so the
    // recorder sees them all.
    obs::FlightRecorderOptions fo;
    fo.capacity = flight_capacity;
    if (flight_out != nullptr) fo.auto_dump_path = flight_out;
    simulator_.EnableFlightRecorder(fo);
  }
  SimTime sample_interval = options.sample_interval;
  if (const char* env = std::getenv("BP_SAMPLE_INTERVAL_US")) {
    const long v = std::atol(env);
    if (v > 0) sample_interval = static_cast<SimTime>(v);
  }
  if (sample_interval > 0) {
    sampler_ =
        std::make_unique<obs::TimeSeriesSampler>(&registry_, sample_interval);
    sampler_->AddDefaultColumns();
    sampler_driver_ =
        std::make_unique<obs::SamplerDriver>(&simulator_, sampler_.get());
  }
  fault.EnableOn(&simulator_, seed, &registry_);
  net.metrics = &registry_;
  network_ = std::make_unique<sim::SimNetwork>(&simulator_, net);
  fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
}

void SimRun::ArmSampler() {
  if (sampler_driver_ != nullptr) sampler_driver_->Arm();
}

void SimRun::RecordQuerySpan(NodeId base, uint64_t query_id, SimTime start,
                             SimTime duration) {
  trace::TraceRecorder* recorder = simulator_.trace();
  if (recorder == nullptr) return;
  trace::Span span;
  span.name = "query";
  span.cat = "query";
  span.tid = static_cast<uint32_t>(base);
  span.ts = start;
  span.dur = duration;
  span.flow = query_id;
  recorder->RecordSpan(std::move(span));
}

void SimRun::Finish(RunArtifacts* out) {
  out->wire_bytes = network_->total_wire_bytes();
  out->metrics = registry_.TakeSnapshot();
  out->trace = simulator_.shared_trace();
  out->flight = simulator_.shared_flight();
  if (sampler_ != nullptr) out->timeseries = sampler_->Take();
  if (out->trace != nullptr) {
    if (const char* path = std::getenv("BP_TRACE_OUT")) {
      Status s = out->trace->WriteChromeJson(path);
      if (!s.ok()) {
        BP_LOG(Warn) << "BP_TRACE_OUT write failed: " << s.ToString();
      }
    }
  }
  if (out->flight != nullptr) {
    if (const char* path = std::getenv("BP_FLIGHT_OUT")) {
      Status s = out->flight->WriteNdjson(path);
      if (!s.ok()) {
        BP_LOG(Warn) << "BP_FLIGHT_OUT write failed: " << s.ToString();
      }
    }
  }
}

}  // namespace bestpeer::workload
