// skyperf: the repository benchmark. One invocation runs one workload:
//
//   skyperf --workload fleet_sharded|kv_pressure|regional_skew --seed N
//           --seconds S --trace 0|1 --slo-ttft-s X --slo-tpot-ms Y
//
// skyperf/run.py builds this binary and supplies the SLO limits from
// skyperf/spec.json; skyperf/METHOD.md maps every metric to its layer and
// workload. Every run goes through the same four phases, whatever --trace:
//
//  1. Set-up: every instance's deployment and clients are wired and started
//     on the workload's own clock, then torn down, at least kSetupReps times.
//     setup_s is the median host time to the first event.
//  2. Timed reps: RunFleetExperiment with tracing off, repeated until
//     --seconds have passed. Rep 0 warms the allocator and caches; host
//     timings are medians over the later reps. The modelled metrics come
//     from the canonical outcome stream (FleetSpec::collect_trace), which is
//     identical in every rep.
//  3. Traced replay: the same workload wired again on one simulator (the
//     plain clock, or one keyed shard for a sharded workload; see
//     TracedReplay) with a Tracer installed and advanced one
//     Simulator::Step() at a time. Each event is one host span, labelled
//     with the layer of the first lifecycle record it emitted. Per-layer
//     counters come from the records and from the layers' stats() getters.
//  4. Checks: every timed rep's outcome digest equals the replay's, the
//     workload still exercises the layers it exists for, and every reported
//     percentile has at least ten samples beyond it.
//
// Every host time is scaled to a reference host speed (see HostSpeed).
//
// The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. The exit code is nonzero when
// any check fails.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/metrics.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/deployment.h"
#include "src/harness/fleet.h"
#include "src/harness/scenario.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"
#include "src/workload/client.h"
#include "src/workload/conversation.h"

namespace skywalker {
namespace {

constexpr int kRegions = 4;
// Set-up is repeated at least kSetupReps times and for at least
// kSetupSeconds (small fleets set up in well under a millisecond).
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 1000;
constexpr double kSetupSeconds = 0.5;
// Timed reps after the warm-up rep.
constexpr int kMinTimedReps = 3;
// Every clock runs on one thread. A sharded window hands work to its pool
// threads and waits for all of them; on a shared host, whether an idle vCPU
// wakes promptly for that handshake comes and goes in phases of minutes, and
// the same 2-thread rep took 1.6 s in one phase and 3.0 s (its serial time)
// in the next. Serially, the sharded clock still runs every window,
// lookahead and mailbox drain; only the handshake is gone.
constexpr int kThreads = 1;
// A percentile is reported only with this many samples beyond it.
constexpr double kMinTailSamples = 10;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SafeDiv(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// ---------------------------------------------------------------------------
// Host speed. On a shared host, co-tenants slow this process's cores by up to
// a half, in phases from seconds to minutes, so the raw host times of two
// runs of the same code differ by more than any useful bound. A fixed
// reference loop with no simulator code in it, an integer hash with
// data-dependent branches, is timed before every instance the benchmark runs
// and after the last. Each phase of the run (the set-up, every timed rep, the
// traced replay) is scaled by kReferenceLoopSeconds over the median of the
// loop times taken in it: its time on a host where the loop takes
// kReferenceLoopSeconds. A change to the simulator moves scaled times as it
// moves raw ones; a slow phase of the host moves both the phase and its loop.
// Over 66 kv_pressure reps on a 4-vCPU VM, log rep time rose 1.34x as fast
// as log loop time (correlation 0.94); a dependent walk over 8 MiB and a
// heap-and-hash-table loop tracked the reps less well.
// ---------------------------------------------------------------------------

class HostSpeed {
 public:
  // The loop's median on a quiet 4-vCPU Xeon VM; only ratios to it matter.
  static constexpr double kReferenceLoopSeconds = 0.0025;

  // Times one pass of the reference loop.
  void Sample() {
    const double t0 = NowSeconds();
    uint64_t h = state_;
    for (uint64_t i = 0; i < kSteps; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      h = (h & 1) != 0 ? h * 0x9e3779b97f4a7c15ull : h + i;
    }
    samples_.push_back(NowSeconds() - t0);
    state_ = h | 1;
  }

  size_t samples() const { return samples_.size(); }
  double median_loop_s() const { return Median(samples_); }
  // The factor that turns raw host seconds of the phase whose loop samples
  // start at index `first` into reference seconds.
  double ScaleSince(size_t first) const {
    const std::vector<double> phase(
        samples_.begin() + static_cast<std::ptrdiff_t>(first), samples_.end());
    return SafeDiv(kReferenceLoopSeconds, Median(phase));
  }

 private:
  static constexpr uint64_t kSteps = 400000;
  // volatile: the hash is never read, and must not be elided.
  volatile uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// Workloads. A workload is several independent fleets ("instances") whose
// seeds derive from (workload, --seed); every modelled metric pools their
// outcomes. One fleet's TTFT p99 swings by a fifth or more from seed to seed;
// a longer window or a bigger fleet did not steady it, more instances did.
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<FleetSpec> instances;
  int clients_per_instance = 0;
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  uint64_t stream = 0;
  int instances = 1;
  bool plain_clock = false;
  int wave_clients = 0;
  if (name == "fleet_sharded") {
    // 1000 replicas, balanced regions, short unshared single-turn prompts:
    // the event queue, shard barrier, probe fan-out and indexed selection
    // carry the run while cache, KV ledger and forwarding idle.
    stream = 1;
    instances = 4;
    spec.replicas_per_region.assign(kRegions, 250);
    spec.clients_per_region = 500;
    spec.client.think_time_mean = Milliseconds(500);
    spec.client.program_gap_mean = Seconds(1);
    spec.replica_config.max_running_requests = 8;
    spec.replica_config.kv_capacity_tokens = 24576;
    spec.conversation = ConversationWorkloadConfig::WildChat();
    spec.conversation.no_template_prob = 1.0;
    spec.conversation.turns_mean = 1;
    spec.conversation.turns_max = 1;
    spec.conversation.lengths.output_mu = 4.6;  // Median ~100 tokens.
    spec.conversation.lengths.output_max = 512;
    spec.lb.engine.probe_interval = Milliseconds(100);
    spec.warmup = Seconds(5);
    spec.measure = Seconds(15);
    spec.drain = Seconds(20);
  } else if (name == "kv_pressure") {
    // Four paged-KV replicas per region, shrunk so every replica sits at the
    // admission wall, with swap preemption; long multi-turn conversations
    // over long shared templates (the fig07 sat/* regime). Replica step,
    // radix-cache eviction, block ledger and preemption carry the run.
    stream = 2;
    instances = 24;
    plain_clock = true;
    spec.replicas_per_region.assign(kRegions, 4);
    spec.clients_per_region = 32;
    spec.client.think_time_mean = Milliseconds(200);
    spec.client.program_gap_mean = Seconds(1);
    ReplicaConfig& rc = spec.replica_config;
    rc.max_running_requests = 32;
    rc.kv_capacity_tokens = 12288;
    rc.output_reserve_tokens = 64;
    rc.kv_block_size_tokens = 16;
    rc.kv_watermark_blocks = (512 + rc.output_reserve_tokens) / 16;
    rc.kv_preempt_policy = PreemptPolicy::kSwap;
    ConversationWorkloadConfig& conv = spec.conversation;
    conv.num_global_templates = 4;
    conv.templates_per_region = 0;
    conv.region_local_template_prob = 0.0;
    conv.no_template_prob = 0.0;
    conv.template_len_min = 1024;
    conv.template_len_max = 1024;
    conv.turns_mean = 4;
    conv.turns_max = 8;
    conv.user_template_loyalty = 0.9;
    conv.lengths.output_max = 1024;
    spec.lb.engine.min_free_block_fraction = 0.01;
    // Contexts grow turn by turn; by 50 s every replica is at the wall.
    spec.warmup = Seconds(50);
    spec.measure = Seconds(30);
    spec.drain = Seconds(60);
  } else if (name == "regional_skew") {
    // 16 replicas per region; region 0's population is several times its
    // capacity while the other three have headroom (the diurnal peak of
    // paper Figs. 2 and 10). LB queueing, cache-aware forwarding and
    // cross-region hops carry the run, with one hot shard.
    stream = 3;
    instances = 24;
    spec.replicas_per_region.assign(kRegions, 16);
    spec.clients_per_region = 48;
    wave_clients = 192;
    spec.client.think_time_mean = Seconds(2);
    spec.client.program_gap_mean = Seconds(3);
    spec.replica_config.max_running_requests = 8;
    spec.replica_config.kv_capacity_tokens = 24576;
    spec.conversation = ConversationWorkloadConfig::WildChat();
    spec.conversation.template_len_min = 256;
    spec.conversation.template_len_max = 256;
    spec.conversation.lengths.output_max = 512;
    // Shed region 0's overload within a probe interval or so: with the
    // default 250 ms patience the TTFT tail is set by a few replica queues
    // and swings by a third from seed to seed.
    spec.lb.routing.forward_patience = Milliseconds(50);
    spec.warmup = Seconds(10);
    spec.measure = Seconds(30);
    spec.drain = Seconds(30);
  } else {
    return false;
  }
  spec.lb.engine.push_mode = PushMode::kSelectivePending;
  spec.client.stop_issuing_after = spec.warmup + spec.measure;
  if (wave_clients > 0) {
    FleetClientWave wave;
    wave.region = 0;
    wave.count = wave_clients;
    wave.start = 0;
    wave.stop_issuing_after = spec.client.stop_issuing_after;
    spec.client_waves.push_back(wave);
  }
  spec.num_shards = plain_clock ? 0 : kRegions;
  spec.num_threads = kThreads;
  spec.collect_trace = true;
  out->instances.clear();
  for (int k = 0; k < instances; ++k) {
    spec.seed = MixSeed(MixSeed(7100 + stream, seed), static_cast<uint64_t>(k));
    out->instances.push_back(spec);
  }
  out->clients_per_instance =
      spec.clients_per_region * kRegions + wave_clients;
  return true;
}

// ---------------------------------------------------------------------------
// Input property: the share of prompt tokens that repeat a prefix of an
// earlier request, counted in whole 16-token blocks. A resolver wrapper sees
// every request as it reaches an LB and forwards it unchanged, so the wiring
// (and the outcome digest) is the same as without it.
// ---------------------------------------------------------------------------

class PrefixShareCounter {
 public:
  static constexpr size_t kBlock = 16;

  void Observe(const TokenSeq& prompt) {
    const int64_t t0 = NowNanos();
    uint64_t h = 0x9e3779b97f4a7c15ull;
    size_t matched_blocks = 0;
    bool matching = true;
    const size_t blocks = prompt.size() / kBlock;
    for (size_t b = 0; b < blocks; ++b) {
      h = HashBytes(prompt.data() + b * kBlock, kBlock * sizeof(Token), h);
      const bool inserted = seen_.insert(h).second;
      if (matching && !inserted) {
        ++matched_blocks;
      } else {
        matching = false;
      }
    }
    shareable_tokens_ += static_cast<int64_t>(matched_blocks * kBlock);
    prompt_tokens_ += static_cast<int64_t>(prompt.size());
    observe_ns_ += NowNanos() - t0;
  }

  int64_t shareable_tokens() const { return shareable_tokens_; }
  int64_t prompt_tokens() const { return prompt_tokens_; }
  int64_t observe_ns() const { return observe_ns_; }

 private:
  std::unordered_set<uint64_t> seen_;
  int64_t shareable_tokens_ = 0;
  int64_t prompt_tokens_ = 0;
  int64_t observe_ns_ = 0;
};

class TapFrontend : public Frontend {
 public:
  TapFrontend(Frontend* inner, PrefixShareCounter* counter)
      : inner_(inner), counter_(counter) {}
  RegionId region() const override { return inner_->region(); }
  bool healthy() const override { return inner_->healthy(); }
  void HandleRequest(Request req, RequestCallbacks callbacks) override {
    counter_->Observe(req.prompt);
    inner_->HandleRequest(std::move(req), std::move(callbacks));
  }

 private:
  Frontend* inner_;
  PrefixShareCounter* counter_;
};

class TapResolver : public FrontendResolver {
 public:
  TapResolver(FrontendResolver* inner, PrefixShareCounter* counter)
      : inner_(inner), counter_(counter) {}
  Frontend* Resolve(RegionId client_region) override {
    Frontend* frontend = inner_->Resolve(client_region);
    if (frontend == nullptr) {
      return nullptr;
    }
    std::unique_ptr<TapFrontend>& tap = taps_[frontend];
    if (tap == nullptr) {
      tap = std::make_unique<TapFrontend>(frontend, counter_);
    }
    return tap.get();
  }

 private:
  FrontendResolver* inner_;
  PrefixShareCounter* counter_;
  std::unordered_map<Frontend*, std::unique_ptr<TapFrontend>> taps_;
};

// ---------------------------------------------------------------------------
// The benchmark's own wiring of a workload, through public entry points only.
// It mirrors RunFleetExperiment step for step (the digest check proves it):
// set-up timing and the traced replay use it.
// ---------------------------------------------------------------------------

struct World {
  FleetSpec spec;
  std::unique_ptr<Simulator> plain;
  std::unique_ptr<ShardedSimulator> sharded;
  std::unique_ptr<Network> net;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<TapResolver> tap;
  std::vector<std::unique_ptr<MetricsCollector>> collectors;
  std::unique_ptr<ConversationGenerator> base_generator;
  std::vector<std::unique_ptr<ConversationGenerator>> generators;
  std::vector<std::unique_ptr<ConversationClient>> clients;
  std::vector<std::unique_ptr<PeriodicTask>> samplers;
};

std::unique_ptr<World> BuildWorld(const FleetSpec& spec, bool plain_clock,
                                  Tracer* tracer,
                                  PrefixShareCounter* share) {
  auto world = std::make_unique<World>();
  world->spec = spec;
  const FleetSpec& s = world->spec;
  const size_t num_regions = s.topology.num_regions();
  if (plain_clock) {
    world->plain = std::make_unique<Simulator>();
    world->net = std::make_unique<Network>(world->plain.get(), s.topology,
                                           /*jitter_fraction=*/0.0, s.seed);
    world->plain->SetTracer(tracer);
  } else {
    world->sharded = std::make_unique<ShardedSimulator>(
        s.topology, s.num_shards, s.num_threads, /*jitter_fraction=*/0.0);
    world->net = std::make_unique<Network>(world->sharded.get(),
                                           /*jitter_fraction=*/0.0, s.seed);
    world->sharded->SetTracer(tracer);
  }
  Network* net = world->net.get();

  DeploymentSpec dspec;
  dspec.replicas_per_region = s.replicas_per_region;
  dspec.replica_config = s.replica_config;
  dspec.lb_config = s.lb;
  dspec.controller_config = s.controller;
  world->deployment = Deployment::Build(
      net->SimForRegion(dspec.controller_config.home_region), net, dspec);
  FrontendResolver* resolver = world->deployment->resolver();
  if (share != nullptr) {
    world->tap = std::make_unique<TapResolver>(resolver, share);
    resolver = world->tap.get();
  }

  const SimTime measure_end = s.warmup + s.measure;
  for (size_t r = 0; r < num_regions; ++r) {
    auto collector = std::make_unique<MetricsCollector>();
    collector->SetMeasurementWindow(s.warmup, measure_end);
    world->collectors.push_back(std::move(collector));
  }

  world->base_generator = std::make_unique<ConversationGenerator>(
      s.conversation, num_regions, s.seed);
  std::vector<SimDuration> staggers;
  auto add_client = [&](RegionId region, uint64_t index,
                        SimTime stop_issuing_after, SimDuration start) {
    world->generators.push_back(std::make_unique<ConversationGenerator>(
        *world->base_generator, index, MixSeed(s.seed + 1000, index + 1)));
    ClientConfig client_config = s.client;
    client_config.request_id_base = static_cast<RequestId>((index + 1) << 32);
    client_config.stop_issuing_after = stop_issuing_after;
    world->clients.push_back(std::make_unique<ConversationClient>(
        net->SimForRegion(region), net, resolver,
        world->generators.back().get(),
        world->collectors[static_cast<size_t>(region)].get(), region,
        client_config, MixSeed(s.seed + 2000, index + 1)));
    Rng stagger_rng(MixSeed(s.seed ^ 0xdead, index + 1));
    staggers.push_back(start +
                       static_cast<SimDuration>(stagger_rng.Uniform(0, 5e6)));
  };
  for (RegionId region = 0; region < static_cast<RegionId>(num_regions);
       ++region) {
    for (int i = 0; i < s.clients_per_region; ++i) {
      add_client(region,
                 static_cast<uint64_t>(region) *
                         static_cast<uint64_t>(s.clients_per_region) +
                     static_cast<uint64_t>(i),
                 s.client.stop_issuing_after, 0);
    }
  }
  uint64_t next_index = static_cast<uint64_t>(num_regions) *
                        static_cast<uint64_t>(s.clients_per_region);
  for (const FleetClientWave& wave : s.client_waves) {
    for (int i = 0; i < wave.count; ++i) {
      add_client(wave.region, next_index++, wave.stop_issuing_after,
                 wave.start);
    }
  }

  world->deployment->Start();
  for (size_t i = 0; i < world->clients.size(); ++i) {
    world->clients[i]->Start(staggers[i]);
  }
  // RunFleetExperiment's per-region occupancy samplers: they only read, but
  // their ticks are events, so the replay schedules the same ones.
  for (RegionId region = 0; region < static_cast<RegionId>(num_regions);
       ++region) {
    Simulator* region_sim = net->SimForRegion(region);
    auto sampler =
        std::make_unique<PeriodicTask>(region_sim, Seconds(1), [] {});
    region_sim->SetCurrentRegion(region);
    sampler->Start();
    world->samplers.push_back(std::move(sampler));
  }
  return world;
}

// ---------------------------------------------------------------------------
// Canonical outcome stream and its digest: the same bytes RunFleetExperiment
// writes into FleetResult::trace.
// ---------------------------------------------------------------------------

std::string CanonicalTrace(std::vector<RequestOutcome> all) {
  std::sort(all.begin(), all.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return std::tie(a.completion_time, a.submit_time,
                              a.client_region, a.id) <
                     std::tie(b.completion_time, b.submit_time,
                              b.client_region, b.id);
            });
  std::string trace;
  trace.reserve(all.size() * 64);
  for (const RequestOutcome& o : all) {
    trace += StrFormat(
        "%lld r%d>r%d@%d s%lld f%lld c%lld p%lld k%lld o%lld h%d%s\n",
        static_cast<long long>(o.id), static_cast<int>(o.client_region),
        static_cast<int>(o.served_region), static_cast<int>(o.replica),
        static_cast<long long>(o.submit_time),
        static_cast<long long>(o.first_token_time),
        static_cast<long long>(o.completion_time),
        static_cast<long long>(o.prompt_tokens),
        static_cast<long long>(o.cached_prompt_tokens),
        static_cast<long long>(o.output_tokens), o.hops,
        o.forwarded ? " F" : "");
  }
  return trace;
}

uint64_t Digest(const std::string& trace) { return HashString(trace); }

// The fields of one canonical trace line the modelled metrics need.
struct Outcome {
  SimTime submit = 0;
  SimTime first_token = 0;
  SimTime completion = 0;
  int64_t output_tokens = 0;
};

std::vector<Outcome> ParseTrace(const std::string& trace, bool* ok) {
  std::vector<Outcome> out;
  *ok = true;
  size_t pos = 0;
  while (pos < trace.size()) {
    size_t end = trace.find('\n', pos);
    if (end == std::string::npos) {
      end = trace.size();
    }
    const std::string line = trace.substr(pos, end - pos);
    pos = end + 1;
    long long id = 0, submit = 0, first = 0, done = 0, prompt = 0;
    long long cached = 0, output = 0;
    int client = 0, served = 0, replica = 0, hops = 0;
    if (std::sscanf(line.c_str(),
                    "%lld r%d>r%d@%d s%lld f%lld c%lld p%lld k%lld o%lld h%d",
                    &id, &client, &served, &replica, &submit, &first, &done,
                    &prompt, &cached, &output, &hops) != 11) {
      *ok = false;
      continue;
    }
    out.push_back(Outcome{submit, first, done, output});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------------

enum Layer { kWorkloadLayer, kCoreLayer, kRoutingLayer, kReplicaLayer,
             kUntracedLayer, kNumLayers };
const char* const kLayerNames[kNumLayers] = {"workload", "core", "routing",
                                             "replica", "untraced"};

// The layer whose entry point emits each record type: clients submit; the
// SkyWalker LB takes arrivals into its queue, forwards, and times out or
// errors queued work; the dispatch engine routes, dispatches and probes;
// the replica runs steps, cache and KV ledger.
Layer LayerOf(uint16_t type) {
  switch (static_cast<TraceEventType>(type)) {
    case TraceEventType::kSubmit:
      return kWorkloadLayer;
    case TraceEventType::kLbEnqueue:
    case TraceEventType::kForward:
    case TraceEventType::kTimeout:
    case TraceEventType::kLbError:
      return kCoreLayer;
    case TraceEventType::kRouteCandidate:
    case TraceEventType::kRouteDecision:
    case TraceEventType::kDispatch:
    case TraceEventType::kProbe:
    case TraceEventType::kEject:
    case TraceEventType::kRecover:
    case TraceEventType::kConfigSwap:
      return kRoutingLayer;
    case TraceEventType::kInvalid:
      return kUntracedLayer;
    default:
      return kReplicaLayer;
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RequestMarks {
  SimTime lb_enter = -1;
  SimDuration lb_wait = 0;
  SimTime replica_arrive = -1;
  SimDuration replica_to_first_token = 0;
  SimTime admit = -1;
  SimTime preempted_at = -1;
  bool awaiting_admit = false;
  bool first_token = false;
};

// Raw per-layer tallies, summed over a workload's instances; LayerMetrics
// turns them into the reported ratios.
struct LayerTally {
  double loop_s = 0;
  int64_t span_ns[kNumLayers] = {};
  int64_t span_events[kNumLayers] = {};
  int64_t events = 0;
  int64_t pending_peak = 0;
  // From lifecycle records.
  int64_t admits = 0;
  int64_t cached_admits = 0;
  int64_t traced_steps = 0;
  int64_t decode_seqs = 0;
  int64_t recompute_tokens = 0;
  Distribution stall_s;
  Distribution prefill_s;
  Distribution preempt_s;
  RunningStat mem_util;
  RunningStat net_ttft_s;
  // From the layers' stats() getters.
  int64_t messages = 0;
  int64_t cross_region_messages = 0;
  int64_t received_client = 0;
  int64_t received_forwarded = 0;
  int64_t forwarded_out = 0;
  int64_t max_queue_len = 0;
  Distribution lb_queue_s;
  int64_t selection_queries = 0;
  int64_t index_touches = 0;
  int64_t probes_sent = 0;
  int64_t probe_misses = 0;
  int64_t engine_steps = 0;
  double busy_frac_sum = 0;
  int64_t replicas = 0;
  int64_t prefill_tokens = 0;
  int64_t preemptions = 0;
  int64_t hit_tokens = 0;
  int64_t lookup_tokens = 0;
  int64_t evict_victims = 0;
  int64_t freed_blocks = 0;
  KvCounters kv;
  int64_t issued = 0;
  int64_t completed = 0;
  int64_t errors = 0;
  int64_t shareable_tokens = 0;
  int64_t prompt_tokens = 0;
};

void Consume(const TraceRecord& r,
             std::unordered_map<int64_t, RequestMarks>* marks,
             LayerTally* out) {
  const auto type = static_cast<TraceEventType>(r.type);
  if (type == TraceEventType::kEngineStep) {
    ++out->traced_steps;
    out->decode_seqs += r.b;
    return;
  }
  if (type == TraceEventType::kMemSample) {
    out->mem_util.Add(r.x);
    return;
  }
  if (r.request < 0) {
    return;
  }
  RequestMarks& m = (*marks)[r.request];
  switch (type) {
    case TraceEventType::kLbEnqueue:
      m.lb_enter = r.time;
      break;
    case TraceEventType::kForward:
    case TraceEventType::kDispatch:
      if (m.lb_enter >= 0) {
        m.lb_wait += r.time - m.lb_enter;
        m.lb_enter = -1;
      }
      break;
    case TraceEventType::kReplicaArrive:
      m.replica_arrive = r.time;
      m.awaiting_admit = true;
      break;
    case TraceEventType::kAdmit:
      ++out->admits;
      if (r.a > 0) {
        ++out->cached_admits;
      }
      if (m.awaiting_admit) {
        out->stall_s.Add(ToSeconds(r.time - m.replica_arrive));
        m.awaiting_admit = false;
      }
      if (m.preempted_at >= 0) {
        out->preempt_s.Add(ToSeconds(r.time - m.preempted_at));
        m.preempted_at = -1;
      }
      m.admit = r.time;
      break;
    case TraceEventType::kRestore:
      if (m.preempted_at >= 0) {
        out->preempt_s.Add(ToSeconds(r.time - m.preempted_at));
        m.preempted_at = -1;
      }
      break;
    case TraceEventType::kPreempt:
      m.preempted_at = r.time;
      if (r.b == 0) {
        out->recompute_tokens += r.a;
      }
      break;
    case TraceEventType::kFirstToken:
      if (!m.first_token && m.admit >= 0) {
        out->prefill_s.Add(ToSeconds(r.time - m.admit));
        m.replica_to_first_token = r.time - m.replica_arrive;
        m.first_token = true;
      }
      break;
    default:
      break;
  }
}

// Replays one instance on a single simulator, one event per span, and adds
// its layer tallies to `tally`. Returns the instance's outcome digest.
// Plain-clock workloads replay on the plain clock. Sharded ones replay on a
// one-shard sharded clock, stepped directly: the sharded clock orders
// same-time events by (time, origin region, per-origin sequence), which the
// program keeps identical for any grouping of regions into shards, while
// the plain clock orders them first in, first out. The two orders part on a
// few percent of regional_skew seeds (61 and 72 among 60-99), so a plain
// replay is not the same program as a sharded run.
uint64_t TracedReplay(const FleetSpec& spec, LayerTally* tally) {
  Tracer tracer(static_cast<int32_t>(spec.topology.num_regions()));
  PrefixShareCounter share;
  FleetSpec one = spec;
  if (one.num_shards > 0) {
    one.num_shards = 1;
    one.num_threads = 1;
  }
  std::unique_ptr<World> world =
      BuildWorld(one, /*plain_clock=*/one.num_shards == 0, &tracer, &share);
  Simulator* sim =
      world->plain ? world->plain.get() : world->sharded->shard(0);
  std::unordered_map<int64_t, RequestMarks> marks;
  const SimTime run_end = spec.warmup + spec.measure + spec.drain;

  const double loop0 = NowSeconds();
  while (sim->HasPendingEvents() && sim->NextEventTime() <= run_end) {
    const int64_t tap0 = share.observe_ns();
    const int64_t t0 = NowNanos();
    sim->Step();
    const int64_t t1 = NowNanos();
    Layer layer = kUntracedLayer;
    if (tracer.size() > 0) {
      const std::vector<TraceRecord> records = tracer.Merged();
      tracer.Clear();
      layer = LayerOf(records.front().type);
      for (const TraceRecord& record : records) {
        Consume(record, &marks, tally);
      }
    }
    // The prefix-share tap is benchmark code, not the layer's.
    tally->span_ns[layer] += (t1 - t0) - (share.observe_ns() - tap0);
    ++tally->span_events[layer];
    tally->pending_peak = std::max<int64_t>(
        tally->pending_peak, static_cast<int64_t>(sim->pending_events()));
  }
  tally->loop_s += NowSeconds() - loop0;
  tally->events += static_cast<int64_t>(sim->executed_events());
  for (auto& sampler : world->samplers) {
    sampler->Stop();
  }

  std::vector<RequestOutcome> outcomes;
  for (const auto& collector : world->collectors) {
    outcomes.insert(outcomes.end(), collector->outcomes().begin(),
                    collector->outcomes().end());
  }
  // Network share of TTFT over the measurement window: client-observed TTFT
  // minus time in LB queues minus replica arrival to first token.
  const SimTime measure_end = spec.warmup + spec.measure;
  for (const RequestOutcome& o : outcomes) {
    if (o.completion_time < spec.warmup || o.completion_time >= measure_end) {
      continue;
    }
    auto it = marks.find(static_cast<int64_t>(o.id));
    if (it != marks.end()) {
      tally->net_ttft_s.Add(ToSeconds(o.first_token_time - o.submit_time -
                                      it->second.lb_wait -
                                      it->second.replica_to_first_token));
    }
  }

  const Deployment& d = *world->deployment;
  tally->messages += static_cast<int64_t>(world->net->messages_sent());
  tally->cross_region_messages +=
      static_cast<int64_t>(world->net->cross_region_messages());
  for (const auto& lb : d.lbs()) {
    const SkyWalkerLb::Stats st = lb->stats();
    tally->received_client += st.received_client;
    tally->received_forwarded += st.received_forwarded;
    tally->forwarded_out += st.forwarded_out;
    tally->max_queue_len = std::max(tally->max_queue_len, st.max_queue_len);
    tally->probes_sent += st.probes_sent;
    tally->probe_misses += st.probe_misses;
    tally->lb_queue_s.Merge(st.queue_wait_sec);
    tally->selection_queries += lb->engine().selection_queries();
    tally->index_touches += lb->engine().index_touches();
  }
  for (const auto& replica : d.replicas()) {
    const Replica::Stats& st = replica->stats();
    tally->engine_steps += st.engine_steps;
    tally->prefill_tokens += st.prefill_tokens_computed;
    tally->preemptions += st.preemptions;
    tally->busy_frac_sum += replica->BusyFraction();
    ++tally->replicas;
    tally->hit_tokens += replica->cache().hit_tokens();
    tally->lookup_tokens += replica->cache().lookup_tokens();
    tally->evict_victims += replica->cache().eviction_stats().victims;
    tally->freed_blocks += replica->cache().eviction_stats().freed_blocks;
    tally->kv += replica->kv().counters();
  }
  for (const auto& client : world->clients) {
    tally->issued += static_cast<int64_t>(client->issued_requests());
    tally->completed += static_cast<int64_t>(client->completed_requests());
    tally->errors += static_cast<int64_t>(client->errors());
  }
  tally->shareable_tokens += share.shareable_tokens();
  tally->prompt_tokens += share.prompt_tokens();
  return Digest(CanonicalTrace(std::move(outcomes)));
}

double Pct(const Distribution& d, double p) {
  return d.empty() ? 0.0 : d.Percentile(p);
}

double Ratio(int64_t a, int64_t b) {
  return SafeDiv(static_cast<double>(a), static_cast<double>(b));
}

std::vector<Metric> LayerMetrics(const LayerTally& t) {
  auto count = [](int64_t v) { return static_cast<double>(v); };
  return {
      {"net.messages", count(t.messages), "count"},
      {"net.cross_region_messages", count(t.cross_region_messages), "count"},
      {"net.ttft_mean_s", t.net_ttft_s.mean(), "s"},
      {"core.forwarded_frac", Ratio(t.forwarded_out, t.received_client),
       "ratio"},
      {"core.received_forwarded", count(t.received_forwarded), "count"},
      {"core.lb_queue_p50_s", Pct(t.lb_queue_s, 50), "s"},
      {"core.lb_queue_p99_s", Pct(t.lb_queue_s, 99), "s"},
      {"core.max_queue_len", count(t.max_queue_len), "count"},
      {"routing.selection_queries", count(t.selection_queries), "count"},
      {"routing.index_touches_per_query",
       Ratio(t.index_touches, t.selection_queries), "ratio"},
      {"routing.probes_sent", count(t.probes_sent), "count"},
      {"routing.probe_misses", count(t.probe_misses), "count"},
      {"routing.prefix_hit_dispatch_frac", Ratio(t.cached_admits, t.admits),
       "ratio"},
      {"replica.engine_steps", count(t.engine_steps), "count"},
      {"replica.busy_frac",
       SafeDiv(t.busy_frac_sum, static_cast<double>(t.replicas)), "ratio"},
      {"replica.decode_batch_mean", Ratio(t.decode_seqs, t.traced_steps),
       "seqs"},
      {"replica.prefill_tokens", count(t.prefill_tokens), "tokens"},
      {"replica.stall_p99_s", Pct(t.stall_s, 99), "s"},
      {"replica.prefill_p50_s", Pct(t.prefill_s, 50), "s"},
      {"replica.preemptions", count(t.preemptions), "count"},
      {"replica.preempt_p99_s", Pct(t.preempt_s, 99), "s"},
      {"cache.hit_rate", Ratio(t.hit_tokens, t.lookup_tokens), "ratio"},
      {"cache.evict_victims", count(t.evict_victims), "count"},
      {"cache.freed_blocks", count(t.freed_blocks), "blocks"},
      {"cache.blocks_per_victim", Ratio(t.freed_blocks, t.evict_victims),
       "ratio"},
      {"memory.swap_outs", count(t.kv.preempt_swap), "count"},
      {"memory.swap_ins", count(t.kv.swap_ins), "count"},
      {"memory.watermark_rejects", count(t.kv.watermark_rejections),
       "count"},
      {"memory.util_mean", t.mem_util.mean(), "ratio"},
      {"memory.recompute_frac", Ratio(t.recompute_tokens, t.prefill_tokens),
       "ratio"},
      {"workload.issued", count(t.issued), "count"},
      {"workload.completed", count(t.completed), "count"},
      {"workload.errors", count(t.errors), "count"},
      {"workload.prefix_shareable_frac",
       Ratio(t.shareable_tokens, t.prompt_tokens), "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Command line and the run.
// ---------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  return StrFormat("%.17g", v);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double slo_ttft_s = 0;
  double slo_tpot_ms = 0;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "skyperf: %s needs a value\n", key.c_str());
      return false;
    }
    if (key == "--workload") {
      o->workload = value;
      continue;
    }
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(number)) {
      std::fprintf(stderr, "skyperf: bad number for %s: %s\n", key.c_str(),
                   value.c_str());
      return false;
    }
    if (key == "--seed" && number >= 0 && number < 1e15) {
      o->seed = static_cast<uint64_t>(number);
    } else if (key == "--seconds" && number > 0 && number <= 3600) {
      o->seconds = number;
    } else if (key == "--trace" && (number == 0 || number == 1)) {
      o->trace = number == 1;
    } else if (key == "--slo-ttft-s" && number > 0) {
      o->slo_ttft_s = number;
    } else if (key == "--slo-tpot-ms" && number > 0) {
      o->slo_tpot_ms = number;
    } else {
      std::fprintf(stderr, "skyperf: bad option %s=%s\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (o->workload.empty() || o->slo_ttft_s <= 0 || o->slo_tpot_ms <= 0) {
    std::fprintf(stderr,
                 "usage: skyperf --workload NAME --seed N --seconds S "
                 "--trace 0|1 --slo-ttft-s X --slo-tpot-ms Y\n");
    return false;
  }
  return true;
}

// Host figures of one timed rep: every instance run once. All but
// raw_run_s are in reference seconds.
struct TimedRep {
  double raw_run_s = 0;
  double scale = 1;
  double run_s = 0;
  double cpu_s = 0;
  // Per-shard sums over the instances.
  std::vector<ShardedSimulator::ShardTiming> shards;
};

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    return 2;
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const int nproc = static_cast<int>(online > 0 ? online : 1);
  Workload w;
  if (!MakeWorkload(opt.workload, opt.seed, &w)) {
    std::fprintf(stderr, "skyperf: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const size_t num_instances = w.instances.size();
  const bool plain_clock = w.instances.front().num_shards == 0;
  HostSpeed speed;

  // --- 1. set-up: wiring and starting every instance, before event one ---
  std::vector<double> setup_s;
  const size_t setup_samples = speed.samples();
  const double setup_deadline = NowSeconds() + kSetupSeconds;
  while (static_cast<int>(setup_s.size()) < kSetupReps ||
         (NowSeconds() < setup_deadline &&
          static_cast<int>(setup_s.size()) < kMaxSetupReps)) {
    speed.Sample();
    double total = 0;
    for (const FleetSpec& spec : w.instances) {
      const double t0 = NowSeconds();
      std::unique_ptr<World> world =
          BuildWorld(spec, plain_clock, nullptr, nullptr);
      total += NowSeconds() - t0;
    }
    setup_s.push_back(total);
  }
  const double setup_scale = speed.ScaleSince(setup_samples);

  // --- 2. timed reps, tracing off ---
  std::vector<TimedRep> reps;
  std::vector<std::vector<uint64_t>> digests(num_instances);
  std::vector<FleetResult> first;  // Rep 0's result per instance.
  bool shards_all_busy = true;
  const double deadline = NowSeconds() + opt.seconds;
  while (static_cast<int>(reps.size()) < 1 + kMinTimedReps ||
         NowSeconds() < deadline) {
    TimedRep rep;
    const size_t rep_samples = speed.samples();
    for (size_t k = 0; k < num_instances; ++k) {
      speed.Sample();
      const double cpu0 = ProcessCpuSeconds();
      const double wall0 = NowSeconds();
      FleetResult result = RunFleetExperiment(w.instances[k]);
      const double call_s = NowSeconds() - wall0;
      const double call_cpu = ProcessCpuSeconds() - cpu0;
      rep.run_s += result.run_wall_seconds;
      // The work outside the loop (wiring, summary, teardown) runs on one
      // thread, so it costs about as much CPU time as wall time.
      rep.cpu_s +=
          std::max(0.0, call_cpu - (call_s - result.run_wall_seconds));
      rep.shards.resize(result.shard_timing.size());
      for (size_t j = 0; j < result.shard_timing.size(); ++j) {
        const ShardedSimulator::ShardTiming& shard = result.shard_timing[j];
        shards_all_busy = shards_all_busy && shard.executed_events > 0;
        rep.shards[j].busy_seconds += shard.busy_seconds;
        rep.shards[j].barrier_seconds += shard.barrier_seconds;
        rep.shards[j].mailbox_in += shard.mailbox_in;
      }
      digests[k].push_back(Digest(result.trace));
      if (reps.empty()) {
        first.push_back(std::move(result));
      }
    }
    speed.Sample();
    rep.raw_run_s = rep.run_s;
    rep.scale = speed.ScaleSince(rep_samples);
    rep.run_s *= rep.scale;
    rep.cpu_s *= rep.scale;
    for (ShardedSimulator::ShardTiming& shard : rep.shards) {
      shard.busy_seconds *= rep.scale;
      shard.barrier_seconds *= rep.scale;
    }
    reps.push_back(std::move(rep));
  }
  const double peak_rss_mb = PeakRssMb();
  // Host figures skip the warm-up rep 0.
  const std::vector<TimedRep> timed(reps.begin() + 1, reps.end());
  std::vector<double> rep_run_s, rep_cpu_s;
  for (const TimedRep& rep : timed) {
    rep_run_s.push_back(rep.run_s);
    rep_cpu_s.push_back(rep.cpu_s);
  }
  const double run_s = Median(rep_run_s);
  const TimedRep* median_rep = &timed.front();
  for (const TimedRep& rep : timed) {
    if (std::abs(rep.run_s - run_s) < std::abs(median_rep->run_s - run_s)) {
      median_rep = &rep;
    }
  }
  const std::vector<ShardedSimulator::ShardTiming>& shards =
      median_rep->shards;
  uint64_t windows = 0, executed_events = 0;
  int64_t completed = 0;
  for (const FleetResult& result : first) {
    windows += result.windows;
    executed_events += result.executed_events;
    completed += result.completed_total;
  }

  // --- 3. traced replay of every instance on one simulator ---
  LayerTally tally;
  std::vector<uint64_t> replay_digests;
  const size_t replay_samples = speed.samples();
  for (const FleetSpec& spec : w.instances) {
    speed.Sample();
    replay_digests.push_back(TracedReplay(spec, &tally));
  }
  speed.Sample();
  const double replay_scale = speed.ScaleSince(replay_samples);

  // --- modelled metrics from the timed runs' canonical outcome streams ---
  std::vector<std::string> failures;
  Distribution ttft, tpot;
  int64_t window = 0, slo_met = 0, good_tokens = 0;
  int64_t issued = 0, failed = 0, lost = 0;
  for (size_t k = 0; k < num_instances; ++k) {
    const FleetSpec& spec = w.instances[k];
    const FleetResult& result = first[k];
    issued += result.issued;
    failed += result.client_errors + result.lost_forever;
    lost += result.lost_forever;
    bool parse_ok = true;
    const std::vector<Outcome> outcomes = ParseTrace(result.trace, &parse_ok);
    if (!parse_ok || outcomes.empty()) {
      failures.push_back(StrFormat(
          "instance %zu: canonical outcome stream missing or unparsable", k));
    }
    const SimTime measure_end = spec.warmup + spec.measure;
    for (const Outcome& o : outcomes) {
      if (o.completion < spec.warmup || o.completion >= measure_end) {
        continue;
      }
      ++window;
      const double t = ToSeconds(o.first_token - o.submit);
      ttft.Add(t);
      bool meets = t <= opt.slo_ttft_s;
      if (o.output_tokens >= 2) {
        const double ms = ToSeconds(o.completion - o.first_token) * 1e3 /
                          static_cast<double>(o.output_tokens - 1);
        tpot.Add(ms);
        meets = meets && ms <= opt.slo_tpot_ms;
      }
      if (meets) {
        ++slo_met;
        good_tokens += o.output_tokens;
      }
    }
  }
  const double measured_s =
      ToSeconds(w.instances.front().measure) * static_cast<double>(num_instances);

  const std::vector<Metric> e2e = {
      {"run_s", run_s, "s"},
      {"sim_req_per_host_s", SafeDiv(static_cast<double>(completed), run_s),
       "req/s"},
      {"run_cpu_s", Median(rep_cpu_s), "s"},
      {"setup_s", Median(setup_s) * setup_scale, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ttft_p50_s", Pct(ttft, 50), "s"},
      {"ttft_p99_s", Pct(ttft, 99), "s"},
      {"tpot_p50_ms", Pct(tpot, 50), "ms"},
      {"tpot_p99_ms", Pct(tpot, 99), "ms"},
      {"goodput_tok_s", static_cast<double>(good_tokens) / measured_s,
       "tok/s"},
      {"slo_attain", Ratio(slo_met, window + failed), "ratio"},
      {"ok_frac", Ratio(issued - failed, issued), "ratio"},
  };

  // --- per-layer metrics ---
  double busy_max = 0, busy_sum = 0, barrier_sum = 0;
  uint64_t mail = 0;
  for (const ShardedSimulator::ShardTiming& shard : shards) {
    busy_max = std::max(busy_max, shard.busy_seconds);
    busy_sum += shard.busy_seconds;
    barrier_sum += shard.barrier_seconds;
    mail += shard.mailbox_in;
  }
  const double num_shards = static_cast<double>(shards.size());
  const double busy_mean = SafeDiv(busy_sum, num_shards);
  std::vector<Metric> layers = {
      {"sim.events", static_cast<double>(tally.events), "count"},
      {"sim.host_ns_per_event",
       SafeDiv(run_s * 1e9, static_cast<double>(executed_events)),
       "ns"},
      {"sim.pending_peak", static_cast<double>(tally.pending_peak), "count"},
      {"sim.shard.windows", static_cast<double>(windows),
       "count"},
      {"sim.shard.busy_max_s", busy_max, "s"},
      {"sim.shard.busy_mean_s", busy_mean, "s"},
      {"sim.shard.barrier_mean_s", SafeDiv(barrier_sum, num_shards), "s"},
      {"sim.shard.imbalance", SafeDiv(busy_max, busy_mean), "ratio"},
      {"sim.shard.mailbox_msgs", static_cast<double>(mail), "count"},
  };
  const std::vector<Metric> counters = LayerMetrics(tally);
  layers.insert(layers.end(), counters.begin(), counters.end());
  int64_t spans_ns = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    spans_ns += tally.span_ns[l];
    layers.push_back({StrFormat("host.%s.s", kLayerNames[l]),
                      static_cast<double>(tally.span_ns[l]) * 1e-9 *
                          replay_scale,
                      "s"});
    layers.push_back({StrFormat("host.%s.events", kLayerNames[l]),
                      static_cast<double>(tally.span_events[l]), "count"});
  }
  const double trace_overhead =
      SafeDiv(tally.loop_s * replay_scale, run_s);
  layers.push_back({"host.trace_overhead", trace_overhead, "ratio"});

  // --- 4. checks ---
  for (size_t k = 0; k < num_instances; ++k) {
    for (uint64_t timed : digests[k]) {
      if (timed != replay_digests[k]) {
        failures.push_back(StrFormat(
            "instance %zu: timed digest %016" PRIx64
            " != traced replay digest %016" PRIx64,
            k, timed, replay_digests[k]));
      }
    }
  }
  if (lost != 0) {
    failures.push_back(StrFormat(
        "%lld requests neither completed nor errored after the drain",
        static_cast<long long>(lost)));
  }
  auto need_tail = [&](const char* what, const Distribution& d, double p) {
    const double beyond = static_cast<double>(d.count()) * (1.0 - p / 100.0);
    if (beyond < kMinTailSamples) {
      failures.push_back(StrFormat(
          "%s p%g has %.1f samples beyond it (n=%zu), needs %g", what, p,
          beyond, d.count(), kMinTailSamples));
    }
  };
  need_tail("ttft", ttft, 50);
  need_tail("ttft", ttft, 99);
  need_tail("tpot", tpot, 50);
  need_tail("tpot", tpot, 99);
  if (opt.workload == "regional_skew" && tally.forwarded_out <= 0) {
    failures.push_back("regional_skew forwarded nothing across regions");
  }
  if (opt.workload == "kv_pressure") {
    if (tally.preemptions <= 0) {
      failures.push_back("kv_pressure preempted nothing");
    }
    if (tally.evict_victims <= 0) {
      failures.push_back("kv_pressure evicted nothing from the cache");
    }
  }
  if (opt.workload == "fleet_sharded" &&
      (!shards_all_busy ||
       shards.size() != static_cast<size_t>(kRegions))) {
    failures.push_back("fleet_sharded left a shard idle");
  }
  const bool correct = failures.empty();

  // --- report ---
  uint64_t digest = 0;
  for (uint64_t d : replay_digests) {
    digest = HashCombine(digest, d);
  }
  std::printf("skyperf workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::printf("host: nproc=%d threads=%d clock=%s instances=%zu "
              "clients/instance=%d (closed loop)\n",
              nproc, kThreads,
              plain_clock ? "plain" : "sharded(4)", num_instances,
              w.clients_per_instance);
  std::printf("slo: ttft<=%g s, tpot<=%g ms\n", opt.slo_ttft_s,
              opt.slo_tpot_ms);
  std::printf("reps: setup=%zu timed=%zu (after 1 warm-up); outcome digest "
              "%016" PRIx64 "\n",
              setup_s.size(), rep_run_s.size(), digest);
  std::printf("host speed: reference loop median %.3f ms over %zu samples "
              "(reference %.3f ms); scales: setup %.4f, replay %.4f\n",
              speed.median_loop_s() * 1e3, speed.samples(),
              HostSpeed::kReferenceLoopSeconds * 1e3, setup_scale,
              replay_scale);
  std::printf("rep raw run_s x scale (warm-up first):");
  for (const TimedRep& rep : reps) {
    std::printf(" %.4fx%.4f", rep.raw_run_s, rep.scale);
  }
  std::printf("\nsamples: window=%lld ttft=%zu tpot=%zu issued=%lld "
              "failed=%lld\n",
              static_cast<long long>(window), ttft.count(), tpot.count(),
              static_cast<long long>(issued), static_cast<long long>(failed));
  std::printf("end-to-end (tracing off):\n");
  for (const Metric& m : e2e) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("per-layer (traced replay on one simulator):\n");
  for (const Metric& m : layers) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("host spans of the traced loop (raw %.3f s, %lld events):\n",
              tally.loop_s, static_cast<long long>(tally.events));
  std::printf("  %-12s %10s %12s %8s\n", "layer", "seconds", "events",
              "share");
  for (int l = 0; l < kNumLayers; ++l) {
    const double s = static_cast<double>(tally.span_ns[l]) * 1e-9;
    std::printf("  %-12s %10.4f %12lld %7.1f%%\n", kLayerNames[l], s,
                static_cast<long long>(tally.span_events[l]),
                100.0 * SafeDiv(s, tally.loop_s));
  }
  const double tracer_s =
      tally.loop_s - static_cast<double>(spans_ns) * 1e-9;
  std::printf("  %-12s %10.4f %12s %7.1f%%\n", "(tracer)", tracer_s, "-",
              100.0 * SafeDiv(tracer_s, tally.loop_s));
  std::printf("  trace_overhead=%.3f (traced loop s / untraced run_s)\n",
              trace_overhead);
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");

  const std::vector<Metric>& chosen = opt.trace ? layers : e2e;
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(issued, 1)),
      static_cast<long long>(failed));
  for (size_t i = 0; i < chosen.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", chosen[i].name.c_str(),
                      JsonNumber(chosen[i].value).c_str(),
                      chosen[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace skywalker

int main(int argc, char** argv) { return skywalker::Main(argc, argv); }
