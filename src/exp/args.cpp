#include "exp/args.h"

#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "exp/experiment.h"
#include "fault/fault.h"

namespace gurita {

namespace {

/// Wraps the std::sto* family with a full-token check: std::stoi("4x8")
/// happily returns 4, which silently runs a different experiment than the
/// one asked for.
template <typename T, typename Parse>
T parse_full_token(const std::string& text, const char* what, Parse parse) {
  std::size_t consumed = 0;
  T value{};
  try {
    value = parse(text, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("not ") + what + ": \"" + text +
                                "\"");
  }
  if (consumed != text.size())
    throw std::invalid_argument(std::string("trailing garbage after ") +
                                what + ": \"" + text + "\"");
  return value;
}

}  // namespace

int parse_int_strict(const std::string& text) {
  return parse_full_token<int>(
      text, "an integer",
      [](const std::string& s, std::size_t* pos) { return std::stoi(s, pos); });
}

std::uint64_t parse_u64_strict(const std::string& text) {
  // stoull accepts a leading '-' (wrapping); reject it explicitly.
  if (!text.empty() && text[0] == '-')
    throw std::invalid_argument("not an unsigned integer: \"" + text + "\"");
  return parse_full_token<std::uint64_t>(
      text, "an unsigned integer", [](const std::string& s, std::size_t* pos) {
        return static_cast<std::uint64_t>(std::stoull(s, pos));
      });
}

double parse_double_strict(const std::string& text) {
  return parse_full_token<double>(
      text, "a number",
      [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); });
}

std::vector<int> parse_int_list(const std::string& csv) {
  // Validate every token fully before returning anything: a late bad token
  // must report itself, not clobber (or ship) the already-parsed prefix.
  std::vector<int> values;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = csv.find(',', start);
    const std::string token = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    try {
      values.push_back(parse_int_strict(token));
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("bad list entry \"" + token + "\" in \"" +
                                  csv + "\"");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

Args::Args(int argc, char** argv) {
  // Collect *every* repeated flag before throwing, so a long sweep command
  // line gets one complete report instead of a whack-a-mole loop.
  std::vector<ConfigError::Issue> duplicates;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    GURITA_CHECK_MSG(arg.rfind("--", 0) == 0, "expected --flag, got " + arg);
    const std::string key = arg.substr(2);
    std::string value;
    // A flag followed by another flag (or by nothing) is a bare boolean.
    if (!(i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0))
      value = argv[++i];
    if (values_.count(key) > 0) {
      duplicates.push_back(
          {arg, "defined more than once (previously \"" + values_[key] +
                    "\", now \"" + value + "\")"});
    } else {
      values_.emplace(key, std::move(value));
    }
  }
  if (!duplicates.empty())
    throw ConfigError("duplicate command-line flags", std::move(duplicates));
}

const std::string* Args::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Args::has(const std::string& key) const { return find(key) != nullptr; }

void Args::reject_unread() const {
  std::vector<ConfigError::Issue> issues;
  for (const auto& [key, value] : values_)
    if (read_.count(key) == 0)
      issues.push_back({"--" + key, "unknown flag, or not used by this run"});
  if (!issues.empty())
    throw ConfigError("unknown command-line flags", std::move(issues));
}

int Args::get_int(const std::string& key, int fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  try {
    return parse_int_strict(*value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("flag --" + key + ": " + e.what());
  }
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  try {
    return parse_u64_strict(*value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("flag --" + key + ": " + e.what());
  }
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  try {
    return parse_double_strict(*value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("flag --" + key + ": " + e.what());
  }
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const std::string& v = *value;
  if (v.empty() || v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw std::logic_error("flag --" + key + " wants a boolean, got " + v);
}

void apply_log_level(const Args& args) {
  if (args.has("log-level"))
    log::set_level(log::level_from_string(args.get_string("log-level", "")));
}

void apply_fault_flags(const Args& args, ExperimentConfig& config) {
  static const char* kFlags[] = {
      "fault-host-rate",     "fault-link-rate",    "fault-straggler-rate",
      "fault-state-loss-rate", "fault-horizon",    "fault-downtime",
      "fault-straggle",      "fault-straggle-factor", "fault-retry",
      "fault-retry-base",    "fault-retry-multiplier", "fault-retry-max-delay",
      "fault-retry-jitter",  "fault-retry-max-attempts"};
  bool any = args.get_bool("faults", false);
  for (const char* flag : kFlags) any = any || args.has(flag);
  if (!any) return;
  config.faults.enabled = true;
  FaultPlanConfig& plan = config.faults.plan;
  plan.host_crash_rate = args.get_double("fault-host-rate", plan.host_crash_rate);
  plan.link_flap_rate = args.get_double("fault-link-rate", plan.link_flap_rate);
  plan.straggler_rate =
      args.get_double("fault-straggler-rate", plan.straggler_rate);
  plan.state_loss_rate =
      args.get_double("fault-state-loss-rate", plan.state_loss_rate);
  plan.horizon = args.get_double("fault-horizon", plan.horizon);
  plan.mean_downtime = args.get_double("fault-downtime", plan.mean_downtime);
  plan.mean_straggle = args.get_double("fault-straggle", plan.mean_straggle);
  plan.straggler_factor =
      args.get_double("fault-straggle-factor", plan.straggler_factor);
  if (args.has("fault-retry")) {
    const std::string shape = args.get_string("fault-retry", "");
    if (shape == "fixed") {
      plan.retry.backoff = RetryPolicy::Backoff::kFixed;
    } else if (shape == "exponential") {
      plan.retry.backoff = RetryPolicy::Backoff::kExponential;
    } else {
      throw std::logic_error("--fault-retry wants fixed|exponential, got " +
                             shape);
    }
  }
  plan.retry.base_delay = args.get_double("fault-retry-base", plan.retry.base_delay);
  plan.retry.multiplier =
      args.get_double("fault-retry-multiplier", plan.retry.multiplier);
  plan.retry.max_delay =
      args.get_double("fault-retry-max-delay", plan.retry.max_delay);
  plan.retry.jitter = args.get_double("fault-retry-jitter", plan.retry.jitter);
  plan.retry.max_attempts =
      args.get_int("fault-retry-max-attempts", plan.retry.max_attempts);
}

void apply_checkpoint_flags(const Args& args, ExperimentConfig& config) {
  if (!args.has("checkpoint-every") && !args.has("checkpoint-dir") &&
      !args.has("resume-from") && !args.has("checkpoint-halt-after"))
    return;

  std::vector<ConfigError::Issue> issues;
  ExperimentConfig::CheckpointOptions& ckpt = config.checkpoint;
  ckpt.every = args.get_double("checkpoint-every", ckpt.every);
  ckpt.dir = args.get_string("checkpoint-dir", ckpt.dir);
  if (args.has("resume-from")) {
    const std::string from = args.get_string("resume-from", "");
    if (from.empty())
      issues.push_back({"--resume-from", "wants a directory"});
    if (!ckpt.dir.empty() && ckpt.dir != from)
      issues.push_back({"--resume-from",
                        "conflicts with --checkpoint-dir " + ckpt.dir});
    ckpt.dir = from;
    ckpt.resume = true;
  }
  ckpt.halt_after = args.get_int("checkpoint-halt-after", ckpt.halt_after);

  if (args.has("checkpoint-every") && ckpt.every <= 0)
    issues.push_back({"--checkpoint-every", "wants a cadence > 0 seconds"});
  if (ckpt.every > 0 && ckpt.dir.empty())
    issues.push_back(
        {"--checkpoint-every",
         "wants a directory (--checkpoint-dir or --resume-from)"});
  if (args.has("checkpoint-halt-after") && ckpt.halt_after <= 0)
    issues.push_back({"--checkpoint-halt-after", "wants a count > 0"});
  if (ckpt.halt_after > 0 && !(ckpt.every > 0))
    issues.push_back(
        {"--checkpoint-halt-after", "wants --checkpoint-every as well"});
  if (args.has("checkpoint-dir") && ckpt.dir.empty())
    issues.push_back({"--checkpoint-dir", "wants a directory"});
  if (!issues.empty())
    throw ConfigError("invalid checkpoint flags", std::move(issues));
}

void apply_timeline_flags(const Args& args, ExperimentConfig& config) {
  ExperimentConfig::ObsOptions& obs = config.obs;
  const bool timeline = args.get_bool("timeline", false) ||
                        args.has("timeline-every") ||
                        args.get_bool("timeline-wall", false);
  if (timeline) {
    obs.timeline_every = args.get_double("timeline-every", 0.05);
    if (!(obs.timeline_every > 0))
      throw ConfigError("invalid timeline flags",
                        {{"--timeline-every", "wants a positive cadence"}});
    obs.timeline_wall = args.get_bool("timeline-wall", false);
  }
  obs.diagnostics = args.get_bool("diagnostics", false);
}

}  // namespace gurita
