#include "scenario/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "exp/sweep.hpp"
#include "obs/profiler.hpp"
#include "obs/report_json.hpp"
#include "scenario/json_cursor.hpp"
#include "scenario/run_scenario.hpp"
#include "util/stats.hpp"

namespace mhp::scenario {

namespace {

using obs::Json;

/// Split "protocol.oracle_order" into segments.
std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> segments;
  std::string current;
  for (const char c : path) {
    if (c == '.') {
      segments.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  segments.push_back(current);
  return segments;
}

}  // namespace

void set_by_path(Json& doc, const std::string& path, Json value) {
  Json* node = &doc;
  for (const std::string& segment : split_path(path)) {
    Json* next = node->find(segment);
    if (next == nullptr)
      throw ScenarioError(
          "campaign.sweep: path \"" + path +
          "\" not found in the base scenario (no key \"" + segment +
          "\" — sweeps can only override fields the schema defines)");
    node = next;
  }
  *node = std::move(value);
}

Campaign parse_campaign(
    const Json& doc,
    const std::function<std::string(const std::string&)>& load_file) {
  ObjectReader r(doc, "campaign");
  Campaign out;
  r.read_string("name", out.name);

  const Json* base = r.take("base");
  if (base == nullptr)
    throw ScenarioError(
        "campaign.base: missing (inline scenario object or file path)");
  Json base_doc;
  if (base->is_object()) {
    base_doc = *base;
  } else if (base->is_string()) {
    if (!load_file)
      throw ScenarioError(
          "campaign.base: file path given but no loader available");
    base_doc = obs::parse_json(load_file(base->as_string()));
  } else {
    r.error("base", std::string("expected object or string, got ") +
                        json_type_name(base->type()));
  }

  if (const Json* sweep = r.take("sweep")) {
    if (!sweep->is_object())
      r.error("sweep", std::string("expected object, got ") +
                           json_type_name(sweep->type()));
    for (const auto& [path, values] : sweep->items()) {
      if (!values.is_array())
        throw ScenarioError("campaign.sweep." + path +
                            ": expected array of values, got " +
                            json_type_name(values.type()));
      if (values.size() == 0)
        throw ScenarioError("campaign.sweep." + path +
                            ": value list must not be empty");
      std::vector<Json> list;
      for (std::size_t i = 0; i < values.size(); ++i)
        list.push_back(values.at(i));
      out.sweep.emplace_back(path, std::move(list));
    }
  }
  r.finish();

  // Canonicalize: parse + full re-dump, so every schema field exists in
  // the document and sweep paths resolve against the complete form.
  out.base = scenario_to_json(parse_scenario(base_doc));

  // Fail fast on misspelled sweep paths — before any point runs.
  for (const auto& [path, values] : out.sweep) {
    Json probe = out.base;
    set_by_path(probe, path, values.front());
  }
  return out;
}

std::vector<CampaignPoint> expand_campaign(const Campaign& campaign) {
  std::vector<CampaignPoint> points;
  std::size_t total = 1;
  for (const auto& [path, values] : campaign.sweep) total *= values.size();
  points.reserve(total);

  // Mixed-radix counter over the value lists, last key fastest.  Point
  // documents are *not* validated here: a sweep value that fails
  // parse_scenario is a per-point failure the campaign runner records,
  // not a reason to abort the whole batch.
  std::vector<std::size_t> index(campaign.sweep.size(), 0);
  for (std::size_t p = 0; p < total; ++p) {
    CampaignPoint point;
    point.doc = campaign.base;
    for (std::size_t k = 0; k < campaign.sweep.size(); ++k) {
      const auto& [path, values] = campaign.sweep[k];
      const Json& value = values[index[k]];
      set_by_path(point.doc, path, value);
      if (!point.key.empty()) point.key += ',';
      point.key += path + "=" + value.dump();
    }
    if (campaign.sweep.empty()) point.key = "base";
    points.push_back(std::move(point));
    for (std::size_t k = campaign.sweep.size(); k-- > 0;) {
      if (++index[k] < campaign.sweep[k].second.size()) break;
      index[k] = 0;
    }
  }
  return points;
}

std::vector<std::pair<std::string, Json>> read_keyed_jsonl(
    const std::string& path) {
  std::vector<std::pair<std::string, Json>> entries;
  std::unordered_map<std::string, std::size_t> index;  // key → entries slot
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      Json doc = obs::parse_json(line);
      const Json* key = doc.find("key");
      if (key == nullptr || !key->is_string()) continue;
      const auto [slot, fresh] =
          index.try_emplace(key->as_string(), entries.size());
      if (fresh)
        entries.emplace_back(slot->first, std::move(doc));
      else
        entries[slot->second].second = std::move(doc);
    } catch (const obs::JsonParseError&) {
      continue;
    }
  }
  return entries;
}

namespace {

struct Agg {
  std::size_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  Json to_json() const {
    return Json::object()
        .set("count", Json(count))
        .set("mean", Json(count > 0 ? sum / static_cast<double>(count) : 0.0))
        .set("min", Json(count > 0 ? min : 0.0))
        .set("max", Json(count > 0 ? max : 0.0));
  }
};

/// Point wall-time roll-up: Agg-style stats plus quantiles from a
/// fixed-bin Histogram over the observed range.  All-zero samples (every
/// point ran with run.record_perf false) still produce a valid block.
Json wall_ms_to_json(const std::vector<double>& samples) {
  Agg agg;
  for (const double v : samples) agg.add(v);
  Json out = agg.to_json();
  // All-zero samples (every point ran with run.record_perf false) report
  // exact zero quantiles rather than the histogram's bin-0 midpoint.
  const bool all_zero = agg.count == 0 || agg.max <= 0.0;
  const double hi = all_zero ? 1.0 : agg.max;  // Histogram needs lo < hi
  Histogram h(0.0, hi * 1.0001, 64);
  for (const double v : samples) h.add(v);
  out.set("p50_ms", Json(all_zero ? 0.0 : h.quantile(0.50)))
      .set("p95_ms", Json(all_zero ? 0.0 : h.quantile(0.95)))
      .set("p99_ms", Json(all_zero ? 0.0 : h.quantile(0.99)));
  return out;
}

/// Roll delivery / throughput / energy / lifetime-proxy aggregates up
/// from every ok result on record (this run and previous ones).
Json build_campaign_summary(const std::string& campaign_name,
                            const std::string& out_dir, std::size_t total) {
  const auto results = read_keyed_jsonl(out_dir + "/results.jsonl");
  const auto manifest = read_keyed_jsonl(out_dir + "/manifest.jsonl");

  std::size_t failed = 0;
  for (const auto& [key, entry] : manifest) {
    const Json* status = entry.find("status");
    if (status != nullptr && status->is_string() &&
        status->as_string() != "ok")
      ++failed;
  }

  Agg delivery, throughput, energy, max_power;
  std::vector<double> wall_ms;
  for (const auto& [key, entry] : results) {
    const Json* ms = entry.find("point_wall_ms");
    if (ms != nullptr && ms->is_number()) wall_ms.push_back(ms->as_double());
    const Json* report = entry.find("report");
    if (report == nullptr) continue;
    const Json* kind = report->find("kind");
    const Json* body = report->find("report");
    if (kind == nullptr || body == nullptr) continue;
    const bool multi = kind->as_string() == "multi_cluster";

    const Json* d = body->find(multi ? "aggregate_delivery"
                                     : "delivery_ratio");
    if (d != nullptr && d->is_number()) delivery.add(d->as_double());
    const Json* t = body->find(multi ? "aggregate_throughput_bps"
                                     : "throughput_bps");
    if (t != nullptr && t->is_number()) throughput.add(t->as_double());

    // Total sensor energy: sum of the per-node node.energy_j series.
    const Json* stats = multi ? body->find("totals") : body;
    if (const Json* metrics = stats ? stats->find("metrics") : nullptr) {
      if (const Json* per_node = metrics->find("per_node")) {
        if (const Json* series = per_node->find("node.energy_j")) {
          double joules = 0.0;
          for (const auto& [node, value] : series->items())
            joules += value.as_double();
          energy.add(joules);
        }
      }
    }

    // Lifetime proxy (polling only): worst sensor's power draw.
    const Json* p = body->find("max_sensor_power_w");
    if (p != nullptr && p->is_number()) max_power.add(p->as_double());
  }

  Json aggregates = Json::object()
                        .set("delivery_ratio", delivery.to_json())
                        .set("throughput_bps", throughput.to_json())
                        .set("sensor_energy_j", energy.to_json());
  if (max_power.count > 0)
    aggregates.set("max_sensor_power_w", max_power.to_json());

  Json body = Json::object()
                  .set("campaign", Json(campaign_name))
                  .set("points", Json::object()
                                     .set("total", Json(total))
                                     .set("ok", Json(results.size()))
                                     .set("failed", Json(failed)))
                  .set("point_wall_ms", wall_ms_to_json(wall_ms))
                  .set("aggregates", std::move(aggregates));
  return obs::report_envelope("campaign_summary", std::move(body));
}

}  // namespace

PointOutcome run_point(const CampaignPoint& point) {
  PointOutcome out;
  bool record_perf = true;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    Scenario s = parse_scenario(point.doc);
    record_perf = s.run.record_perf;
    s.profile = false;
    out.report = run_scenario(s);
  } catch (const std::exception& e) {
    out.error = e.what();
    if (out.error.empty()) out.error = "unknown error";
  }
  if (record_perf)
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return out;
}

JobLog::JobLog(std::string dir) : dir_(std::move(dir)) {
  // A directory that cannot be made shows as !is_open() below.
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  for (const auto& [key, entry] : read_keyed_jsonl(dir_ + "/manifest.jsonl")) {
    const Json* status = entry.find("status");
    if (status != nullptr && status->is_string() &&
        status->as_string() == "ok")
      finished_.insert(key);
  }
  results_.open(dir_ + "/results.jsonl", std::ios::app);
  manifest_.open(dir_ + "/manifest.jsonl", std::ios::app);
}

void JobLog::record(const CampaignPoint& point, const PointOutcome& outcome) {
  Json status = Json::object().set("key", Json(point.key));
  if (outcome.error.empty()) {
    results_ << Json::object()
                    .set("key", Json(point.key))
                    .set("scenario", point.doc)
                    .set("point_wall_ms", Json(outcome.wall_ms))
                    .set("report", outcome.report)
                    .dump()
             << '\n'
             << std::flush;
    status.set("status", Json("ok"));
  } else {
    status.set("status", Json("failed")).set("error", Json(outcome.error));
  }
  manifest_ << status.dump() << '\n' << std::flush;
}

std::vector<std::pair<std::string, Json>> JobLog::read_results() const {
  return read_keyed_jsonl(dir_ + "/results.jsonl");
}

void JobLog::write_summary(const std::string& campaign_name,
                           std::size_t total) const {
  obs::save_json(dir_ + "/summary.json",
                 build_campaign_summary(campaign_name, dir_, total));
}

CampaignResult run_campaign(const Campaign& campaign,
                            const std::string& out_dir, std::size_t workers,
                            std::FILE* log, const std::atomic<bool>* stop) {
  JobLog job_log(out_dir);
  if (!job_log.is_open())
    throw std::runtime_error("campaign: cannot open output files in " +
                             out_dir);

  const std::vector<CampaignPoint> points = expand_campaign(campaign);
  CampaignResult result;
  result.total = points.size();

  std::vector<const CampaignPoint*> to_run;
  for (const CampaignPoint& point : points) {
    if (job_log.finished(point.key)) {
      ++result.skipped;
      if (log != nullptr)
        std::fprintf(log, "campaign: skipping completed point %s\n",
                     point.key.c_str());
    } else {
      to_run.push_back(&point);
    }
  }

  std::mutex mu;
  std::size_t finished = 0;
  std::vector<std::size_t> order(to_run.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // One simulation per sweep point across the shared thread pool; each
  // point is isolated — a throwing point records a failed manifest line
  // and the rest of the batch keeps going.
  const std::vector<int> outcomes = exp::sweep<std::size_t, int>(
      order,
      [&](const std::size_t& i) -> int {
        // An interrupt (SIGINT/SIGTERM in mhp_run) stops dispatching:
        // this point is abandoned without a manifest line, so a resume
        // reruns it.  Points already past this check finish and flush.
        if (stop != nullptr && stop->load(std::memory_order_relaxed))
          return 2;
        const CampaignPoint& point = *to_run[i];
        MHP_SPAN("campaign/point");
        const PointOutcome outcome = run_point(point);

        const std::scoped_lock lock(mu);
        ++finished;
        job_log.record(point, outcome);
        if (outcome.error.empty()) {
          if (log != nullptr)
            std::fprintf(log, "campaign: [%zu/%zu] ok %s\n", finished,
                         to_run.size(), point.key.c_str());
          return 0;
        }
        if (log != nullptr)
          std::fprintf(log, "campaign: [%zu/%zu] FAILED %s: %s\n", finished,
                       to_run.size(), point.key.c_str(),
                       outcome.error.c_str());
        return 1;
      },
      workers);

  for (const int outcome : outcomes) {
    if (outcome == 0)
      ++result.ok;
    else if (outcome == 1)
      ++result.failed;
    else
      ++result.interrupted;
  }

  job_log.write_summary(campaign.name, points.size());
  return result;
}

}  // namespace mhp::scenario
