// The attack_point workload: one Fig.-8 point (Push -> Pull, 2x2 aluminium
// trigger, injection rate 0.4, 8 SHAP frames) from an empty cache, through
// the public har / xai / core entry points in the order an attacker runs
// them: clean datasets, surrogate training, plan (SHAP + Eq. 2/4 position
// search), poisoning, backdoored retraining, the triggered attack set and
// ASR/UASR/CDR. Serving is bypassed.
//
// The experiment setup is built here, not from the MMHAR_* scale knobs: two
// participants, one repetition per grid cell and 6 epochs keep a cold point
// around half a minute on a 4-core host. --seed picks the simulation seed
// of the datasets and the poisoning selection; the grid, and so the work
// the point does, is the same for every seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/attack_eval.h"
#include "core/backdoor_attack.h"
#include "core/experiment.h"
#include "dsp/heatmap.h"
#include "har/trainer.h"
#include "mesh/human.h"

namespace perfbench {
namespace {

using namespace mmhar;
namespace fs = std::filesystem;

constexpr std::size_t kSetups = 200;  // timed set-ups per run; median reported
constexpr std::size_t kPlanRepeats = 2;

core::ExperimentSetup make_setup(const Options& opt, const std::string& cache) {
  core::ExperimentSetup s;
  s.train_generator.environment = radar::EnvironmentKind::Hallway;
  s.attack_generator = s.train_generator;
  s.attack_generator.environment = radar::EnvironmentKind::Classroom;
  // Two of the three participants: keeps a cold point (and the traced run,
  // which runs it twice) well inside the time a run may take on a loaded host.
  s.train_grid.participants = std::vector<int>{0, 1};
  s.train_grid.repetitions = 1;
  s.train_grid.repetition_offset = 0;
  s.train_grid.seed = 7 + opt.seed;
  s.test_grid = s.train_grid;
  s.test_grid.repetition_offset = 100;
  s.attack_grid = s.test_grid;
  s.attack_grid.repetition_offset = 500;
  s.model.seed = 42;
  s.model.conv1_channels = 6;
  s.model.conv2_channels = 12;
  s.model.feature_dim = 48;
  s.model.lstm_hidden = 48;
  s.training.epochs = 6;
  s.training.batch_size = 8;
  s.training.weight_decay = 0.0F;
  s.repeats = 1;
  s.cache_dir = cache;
  s.resume_sweeps = false;
  s.checkpoint_every = 0;
  if (opt.smoke) {
    for (har::DatasetConfig* g : {&s.train_grid, &s.test_grid, &s.attack_grid}) {
      g->participants = std::vector<int>{0};
      g->distances_m = std::vector<double>{1.2, 1.6};
    }
    s.training.epochs = 1;
    s.shap.num_permutations = 2;
  }
  return s;
}

// What set-up builds before the point can run: the two simulation
// pipelines (environment meshes included) and the untrained models.
struct Rig {
  core::ExperimentSetup setup;
  std::unique_ptr<har::SampleGenerator> train_gen;
  std::unique_ptr<har::SampleGenerator> attack_gen;
  std::unique_ptr<har::HarModel> surrogate;
  std::unique_ptr<har::HarModel> backdoored;
};

void set_up(Rig& rig, const Options& opt, const std::string& cache) {
  rig.setup = make_setup(opt, cache);
  rig.train_gen = std::make_unique<har::SampleGenerator>(rig.setup.train_generator);
  rig.attack_gen =
      std::make_unique<har::SampleGenerator>(rig.setup.attack_generator);
  har::HarModelConfig mc = rig.setup.model;
  mc.seed = rig.setup.model.seed ^ 0x5A5AULL;
  rig.surrogate = std::make_unique<har::HarModel>(mc);
  mc.seed = rig.setup.model.seed + 1000;
  rig.backdoored = std::make_unique<har::HarModel>(mc);
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// The plan composed from BackdoorAttack::plan's public sub-calls, each
// traced on its own. Must equal BackdoorAttack::plan bit for bit.
core::BackdoorPlan composed_plan(const core::BackdoorAttackConfig& cfg,
                                 const har::SampleGenerator& gen,
                                 har::HarModel& surrogate,
                                 const har::Dataset& train, Tracer& tracer,
                                 Stage& shap, Stage& search) {
  core::BackdoorPlan plan;
  auto victims = train.indices_of_label(cfg.victim_label);
  if (victims.size() > 3) victims.resize(3);
  {
    ScopedSpan span(tracer, "xai.mean_abs_shap");
    StageTimer t(shap);
    xai::FrameImportance importance(surrogate, cfg.shap);
    plan.mean_abs_shap =
        importance.mean_abs_shap(train, victims, cfg.victim_label);
    plan.frames = xai::top_k_by_magnitude(plan.mean_abs_shap,
                                          cfg.poisoned_frames);
  }
  StageTimer t(search);
  har::SampleSpec ref = cfg.reference_spec;
  ref.activity = mesh::activity_from_index(cfg.victim_label);
  plan.placement.spec = cfg.trigger;
  plan.placement.local_normal = {-1.0, 0.0, 0.0};
  core::TriggerPositionOptimizer optimizer(gen, surrogate, cfg.objective);
  {
    ScopedSpan span(tracer, "core.evaluate_anchors");
    plan.anchor_ranking = optimizer.evaluate_anchors(ref, cfg.trigger, plan.frames);
  }
  {
    ScopedSpan span(tracer, "core.per_frame_optima");
    plan.per_frame_optima =
        optimizer.per_frame_optima(ref, cfg.trigger, plan.frames);
  }
  ScopedSpan span(tracer, "core.weighted_geometric_median");
  std::vector<double> weights;
  double total = 0.0;
  for (const std::size_t f : plan.frames) {
    weights.push_back(std::abs(plan.mean_abs_shap[f]));
    total += weights.back();
  }
  if (total <= 0.0)
    for (auto& w : weights) w = 1.0;
  plan.placement.local_position =
      core::weighted_geometric_median(plan.per_frame_optima, weights);
  return plan;
}

// Per-frame cost of the DSP entry point the dataset builder uses
// (compute_drai_sequence over one sample's simulated frames).
double drai_us_per_frame(const har::SampleGenerator& gen,
                         const har::SampleSpec& spec, double budget_s) {
  const std::vector<dsp::RadarCube> cubes = gen.generate_cubes(spec);
  const dsp::HeatmapConfig& hm = gen.config().heatmap;
  Tensor drai = dsp::compute_drai_sequence(cubes, hm);
  std::vector<double> per_call;
  const Clock::time_point t0 = Clock::now();
  while (per_call.size() < 5 || seconds_since(t0) < budget_s) {
    const Clock::time_point c0 = Clock::now();
    drai = dsp::compute_drai_sequence(cubes, hm);
    per_call.push_back(seconds_since(c0));
  }
  return median(per_call) * 1e6 / static_cast<double>(cubes.size());
}

// Per-window cost of the forward pass evaluate_attack runs (HarModel::forward
// on batches of up to `batch` windows).
double forward_us_per_window(har::HarModel& model, const har::Dataset& data,
                             std::size_t batch, double budget_s) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < batch; ++i) idx.push_back(i);
  const Tensor in = data.batch_of(idx);
  Tensor logits = model.forward(in, /*training=*/false);
  std::vector<double> per_call;
  const Clock::time_point t0 = Clock::now();
  while (per_call.size() < 5 || seconds_since(t0) < budget_s) {
    const Clock::time_point c0 = Clock::now();
    logits = model.forward(in, /*training=*/false);
    per_call.push_back(seconds_since(c0));
  }
  return median(per_call) * 1e6 / static_cast<double>(batch);
}

}  // namespace

Outcome run_attack_point(const Options& opt, Tracer& tracer) {
  Outcome out;
  const bool traced = tracer.enabled();

  // A fresh, empty artifact cache for this pass: a warm cache (datasets,
  // twins) would time a different program. BackdoorAttack::poison reads
  // the cache location from MMHAR_CACHE_DIR, so that is pointed here too.
  static int pass = 0;
  const std::string cache = opt.work_dir + "/cache-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(pass++);
  fs::remove_all(cache);
  fs::create_directories(cache);
  if (!fs::is_empty(cache)) out.mismatch("artifact cache not empty at start");
  ::setenv("MMHAR_CACHE_DIR", cache.c_str(), 1);

  Rig rig;
  // One set-up takes a fraction of a millisecond, and on a shared host its
  // time depends on the vCPU that runs it (up to 1.8x apart, steady within
  // a run). So the set-ups are spread evenly over every CPU this process
  // may use, each CPU's first one untimed, and the median is over all of
  // them. The worker pool is started first: threads inherit the affinity
  // of the thread that creates them.
  mmhar::global_pool();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0)
    throw std::runtime_error("pthread_getaffinity_np failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  std::vector<Stage> setups;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    set_up(rig, opt, cache);
    const std::size_t n = (kSetups + cpus.size() - 1) / cpus.size();
    for (std::size_t k = 0; k < n; ++k) {
      ScopedSpan span(tracer, "attack.setup");
      const StageTimer timed(setups.emplace_back());
      set_up(rig, opt, cache);
    }
  }
  pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
  const core::ExperimentSetup& setup = rig.setup;
  const core::AttackPoint point;  // Push -> Pull, 2x2 Al, 0.4, 8 frames
  const std::uint64_t selection_seed = 11 + opt.seed;

  core::BackdoorAttackConfig cfg;
  cfg.victim_label = point.victim;
  cfg.target_label = point.target;
  cfg.trigger = point.trigger;
  cfg.poisoned_frames = point.poisoned_frames;
  cfg.frame_selection = point.frame_selection;
  cfg.optimize_position = point.optimize_position;
  cfg.objective = setup.objective;
  cfg.shap = setup.shap;
  cfg.reference_spec.participant = 0;
  cfg.reference_spec.distance_m = 1.6;
  cfg.reference_spec.angle_deg = 0.0;
  cfg.reference_spec.seed = setup.train_grid.seed;

  Stage dataset, train, shap, search, plan_stage, twins, splice, attack_set,
      evaluate;
  std::size_t trained_sample_epochs = 0;
  har::Dataset train_set, test_set, attack_test;
  core::BackdoorPlan plan;
  core::PoisonResult poisoned;
  core::AttackMetrics metrics;

  const Clock::time_point p0 = Clock::now();
  const double cpu0 = process_cpu_s();
  {
    ScopedSpan root(tracer, "attack.point", opt.seed);
    {
      ScopedSpan span(tracer, "har.load_or_build_dataset");
      StageTimer t(dataset);
      train_set = har::load_or_build_dataset(*rig.train_gen, setup.train_grid,
                                             cache);
      test_set = har::load_or_build_dataset(*rig.train_gen, setup.test_grid,
                                            cache);
    }
    har::TrainConfig tc = setup.training;
    {
      ScopedSpan span(tracer, "har.train_model.surrogate");
      StageTimer t(train);
      tc.seed = rig.surrogate->config().seed ^ 0x5EEDULL;
      har::train_model(*rig.surrogate, train_set, tc);
      trained_sample_epochs += train_set.size() * tc.epochs;
    }
    {
      ScopedSpan span(tracer, "core.plan");
      StageTimer t(plan_stage);
      if (traced) {
        plan = composed_plan(cfg, *rig.train_gen, *rig.surrogate, train_set,
                             tracer, shap, search);
      } else {
        core::BackdoorAttack attack(*rig.train_gen, *rig.surrogate, cfg);
        plan = attack.plan(train_set);
      }
    }
    {
      ScopedSpan span(tracer, "core.poison");
      if (traced) {
        har::Dataset twin_set;
        {
          ScopedSpan s2(tracer, "core.load_or_build_triggered_twins");
          StageTimer t(twins);
          twin_set = core::load_or_build_triggered_twins(
              *rig.train_gen, setup.train_grid, cfg.victim_label,
              plan.placement, cache);
        }
        ScopedSpan s2(tracer, "core.poison_dataset");
        StageTimer t(splice);
        core::PoisonConfig pc;
        pc.victim_label = cfg.victim_label;
        pc.target_label = cfg.target_label;
        pc.injection_rate = point.injection_rate;
        pc.poisoned_frames = cfg.poisoned_frames;
        pc.frame_selection = cfg.frame_selection;
        pc.seed = selection_seed;
        poisoned = core::poison_dataset(train_set, twin_set, pc, plan.frames);
      } else {
        StageTimer t(twins);
        core::BackdoorAttack attack(*rig.train_gen, *rig.surrogate, cfg);
        poisoned = attack.poison(train_set, setup.train_grid, plan,
                                 point.injection_rate, selection_seed);
      }
    }
    {
      ScopedSpan span(tracer, "har.train_model.backdoored");
      StageTimer t(train);
      tc.seed = rig.backdoored->config().seed ^ 0x5EEDULL;
      har::train_model(*rig.backdoored, poisoned.dataset, tc);
      trained_sample_epochs += poisoned.dataset.size() * tc.epochs;
    }
    {
      ScopedSpan span(tracer, "core.attack_set");
      StageTimer t(attack_set);
      attack_test = core::load_or_build_triggered_twins(
          *rig.attack_gen, setup.attack_grid, point.victim, plan.placement,
          cache);
    }
    {
      ScopedSpan span(tracer, "core.evaluate_attack");
      StageTimer t(evaluate);
      metrics = core::evaluate_attack(*rig.backdoored, test_set, attack_test,
                                      point.victim, point.target);
    }
  }
  const double point_s = seconds_since(p0);
  const double point_cpu_s = process_cpu_s() - cpu0;

  // The plan is timed three times: in the point and in kPlanRepeats
  // re-plans from the same surrogate. plan_cpu_s is the best of them: a
  // 3 s stage's CPU time still rises by up to a third when the host puts a
  // busy neighbour on the same core. Each re-plan is BackdoorAttack::plan
  // and must reproduce the point's plan exactly, which in the traced pass
  // checks the composed plan against it.
  std::vector<Stage> plans{plan_stage};
  for (std::size_t i = 0; i < kPlanRepeats; ++i) {
    ScopedSpan span(tracer, "core.plan.repeat");
    core::BackdoorPlan again;
    {
      const StageTimer timed(plans.emplace_back());
      core::BackdoorAttack attack(*rig.train_gen, *rig.surrogate, cfg);
      again = attack.plan(train_set);
    }
    const mesh::Vec3 a = again.placement.local_position;
    const mesh::Vec3 b = plan.placement.local_position;
    if (again.frames != plan.frames || again.mean_abs_shap != plan.mean_abs_shap ||
        a.x != b.x || a.y != b.y || a.z != b.z)
      out.mismatch("BackdoorAttack::plan did not reproduce the point's plan");
  }

  // ---- Correctness (outside the timed region) ----
  {
    ScopedSpan span(tracer, "attack.verify");
    const std::size_t T = setup.model.frames;
    std::vector<bool> seen(T, false);
    bool frames_ok = plan.frames.size() == cfg.poisoned_frames;
    for (const std::size_t f : plan.frames) {
      frames_ok = frames_ok && f < T && !seen[f];
      if (f < T) seen[f] = true;
    }
    if (!frames_ok) out.mismatch("plan frames are not 8 distinct frame indices");
    const mesh::Vec3 p = plan.placement.local_position;
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z))
      out.mismatch("trigger placement is not finite");
    if (poisoned.poisoned_indices.empty())
      out.mismatch("no sample was poisoned");
    for (const std::size_t i : poisoned.poisoned_indices)
      if (poisoned.dataset.sample(i).label != cfg.target_label) {
        out.mismatch("poisoned sample not relabelled to the target");
        break;
      }
    // ASR/UASR/CDR again, one sample at a time (batch-1 forwards), against
    // the batched evaluate_attack.
    std::size_t hit = 0, miss = 0, clean_ok = 0;
    for (std::size_t i = 0; i < attack_test.size(); ++i) {
      const std::size_t y = rig.backdoored->predict(attack_test.sample(i).heatmaps);
      hit += y == point.target ? 1 : 0;
      miss += y != point.victim ? 1 : 0;
    }
    for (std::size_t i = 0; i < test_set.size(); ++i)
      clean_ok += rig.backdoored->predict(test_set.sample(i).heatmaps) ==
                          test_set.sample(i).label
                      ? 1
                      : 0;
    const auto frac = [](std::size_t a, std::size_t n) {
      return n > 0 ? static_cast<double>(a) / static_cast<double>(n) : 0.0;
    };
    double asr = metrics.asr;
    if (opt.force_mismatch) asr += 1.0 / static_cast<double>(attack_test.size());
    if (attack_test.empty() || asr != frac(hit, attack_test.size()) ||
        metrics.uasr != frac(miss, attack_test.size()) ||
        std::abs(metrics.cdr - frac(clean_ok, test_set.size())) > 1e-6)
      out.mismatch("evaluate_attack disagrees with per-sample predictions");
  }
  out.attempted = 1;

  std::ostringstream fp;
  fp << "frames";
  for (const std::size_t f : plan.frames) fp << ' ' << f;
  fp << " pos " << hex(plan.placement.local_position.x) << ' '
     << hex(plan.placement.local_position.y) << ' '
     << hex(plan.placement.local_position.z) << " poisoned";
  for (const std::size_t i : poisoned.poisoned_indices) fp << ' ' << i;
  fp << " asr " << hex(metrics.asr) << " uasr " << hex(metrics.uasr) << " cdr "
     << hex(metrics.cdr);
  out.fingerprint = fp.str();

  std::error_code ec;
  fs::remove_all(cache, ec);

  // ---- Metrics: the op is the point ----
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double T = static_cast<double>(setup.model.frames);
  out.set("setup_s", median_cpu_s(setups));
  out.set("peak_rss_mb", peak_rss_mb());
  // CPU rather than wall time is the bounded cost: see Stage.
  out.set("cpu_ms_per_op", point_cpu_s * 1e3);
  out.set("ops_per_s", 1.0 / point_s);
  out.set("cpu_util", point_cpu_s / point_s);
  out.set("setup_wall_s", median_wall_s(setups));
  out.set("latency_p50_ms", point_s * 1e3);
  out.set("latency_p99_ms", point_s * 1e3);
  const std::size_t eval_batch = std::min<std::size_t>(32, test_set.size());
  out.set("har.windows_per_call", static_cast<double>(eval_batch));

  std::ostringstream d;
  d << "{\"workload\": \"attack_point\", \"point_s\": " << json_num(point_s)
    << ", \"point_cpu_s\": " << json_num(point_cpu_s)
    << ", \"asr\": " << json_num(metrics.asr)
    << ", \"uasr\": " << json_num(metrics.uasr)
    << ", \"cdr\": " << json_num(metrics.cdr)
    << ", \"attack_samples\": " << metrics.attack_samples
    << ", \"clean_samples\": " << metrics.clean_samples
    << ", \"train_samples\": " << train_set.size()
    << ", \"poisoned_samples\": " << poisoned.poisoned_indices.size()
    << ", \"selection_seed\": " << selection_seed
    << ", \"placement\": [" << json_num(plan.placement.local_position.x) << ", "
    << json_num(plan.placement.local_position.y) << ", "
    << json_num(plan.placement.local_position.z) << "], \"frames\": [";
  for (std::size_t i = 0; i < plan.frames.size(); ++i)
    d << (i ? ", " : "") << plan.frames[i];
  d << "], \"setup_runs\": " << setups.size()
    << "}";
  out.detail.push_back(d.str());

  // Per-stage wall and CPU time of the point, by the module called.
  // plan_cpu_s is the best of the three plans: a 3 s stage's CPU time
  // still rises by up to a third when the host puts a busy neighbour on
  // the same core.
  double plan_cpu_s = plans.front().cpu_s;
  for (const Stage& p : plans) plan_cpu_s = std::min(plan_cpu_s, p.cpu_s);
  std::ostringstream st;
  st << "{\"stages\": {\"plan_s\": " << json_num(median_wall_s(plans))
     << ", \"plan_cpu_s\": " << json_num(plan_cpu_s)
     << ", \"har.dataset_s\": " << json_num(dataset.wall_s)
     << ", \"har.dataset_cpu_util\": " << json_num(ratio(dataset.cpu_s, dataset.wall_s))
     << ", \"radar.frames_per_s\": "
     << json_num(ratio(static_cast<double>(train_set.size() + test_set.size()) * T,
                       dataset.wall_s))
     << ", \"har.train_s\": " << json_num(train.wall_s)
     << ", \"har.train_cpu_util\": " << json_num(ratio(train.cpu_s, train.wall_s))
     << ", \"har.sample_epochs_per_s\": "
     << json_num(ratio(static_cast<double>(trained_sample_epochs), train.wall_s));
  if (traced) {
    // Coalition evaluations of sampling_shapley: per reference sample,
    // 2 * permutations walks of T + 1 LSTM-head forwards.
    const double refs = static_cast<double>(
        std::min<std::size_t>(3, train_set.indices_of_label(cfg.victim_label).size()));
    st << ", \"xai.shap_s\": " << json_num(shap.wall_s) << ", \"xai.shap_forwards\": "
       << json_num(refs * 2.0 * static_cast<double>(setup.shap.num_permutations) * (T + 1.0))
       << ", \"core.search_s\": " << json_num(search.wall_s)
       // evaluate_anchors and per_frame_optima each simulate every anchor.
       << ", \"core.search_candidates\": " << 2 * mesh::all_anchors().size()
       << ", \"core.poison_s\": " << json_num(splice.wall_s);
  }
  st << ", \"core.twins_s\": " << json_num(twins.wall_s)
     << ", \"core.attack_set_s\": " << json_num(attack_set.wall_s)
     << ", \"core.evaluate_s\": " << json_num(evaluate.wall_s)
     << ", \"core.eval_samples_per_s\": "
     << json_num(ratio(static_cast<double>(test_set.size() + attack_test.size()),
                       evaluate.wall_s))
     << "}}";
  out.detail.push_back(st.str());

  if (traced) {
    // Kernel replays on the point's own inputs and model.
    const double budget = opt.smoke ? 0.05 : 0.5;
    double dsp_us = 0.0;
    double infer_us = 0.0;
    {
      ScopedSpan span(tracer, "dsp.compute_drai_sequence.replay");
      dsp_us = drai_us_per_frame(*rig.train_gen, cfg.reference_spec, budget);
    }
    {
      ScopedSpan span(tracer, "har.forward.replay", eval_batch);
      infer_us = forward_us_per_window(*rig.backdoored, test_set, eval_batch, budget);
    }
    // Frames simulated: both clean datasets, the training twins (one per
    // victim sample) and the triggered attack set; windows classified:
    // what evaluate_attack scores.
    const double frames =
        T * static_cast<double>(train_set.size() + test_set.size() +
                                train_set.indices_of_label(cfg.victim_label).size() +
                                attack_test.size());
    const double windows = static_cast<double>(test_set.size() + attack_test.size());
    out.set("dsp.frame_us", dsp_us);
    out.set("har.infer_us_per_window", infer_us);
    out.set("kernel_cpu_share", (frames * dsp_us + windows * infer_us) / (point_cpu_s * 1e6));
  }
  return out;
}

}  // namespace perfbench
