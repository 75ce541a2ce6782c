// parse_scenario: strict JSON → Scenario with path-qualified errors.
//
// Every section is read through an ObjectReader, so an unknown or
// misspelled key anywhere in the document is an error naming the exact
// path — never a silently ignored field.  Semantic checks (ranges,
// cross-field consistency, per-stack section validity) run after the
// structural read so their messages carry the same path discipline.
#include <string>

#include "scenario/json_cursor.hpp"
#include "scenario/scenario.hpp"

namespace mhp::scenario {

const char* to_string(StackKind stack) {
  switch (stack) {
    case StackKind::kPolling:
      return "polling";
    case StackKind::kMultiCluster:
      return "multi_cluster";
    case StackKind::kSmac:
      return "smac";
  }
  return "?";
}

const char* to_string(DeploymentSpec::Kind kind) {
  switch (kind) {
    case DeploymentSpec::Kind::kConnectedUniformSquare:
      return "connected_uniform_square";
    case DeploymentSpec::Kind::kUniformSquare:
      return "uniform_square";
    case DeploymentSpec::Kind::kGrid:
      return "grid";
    case DeploymentSpec::Kind::kRings:
      return "rings";
    case DeploymentSpec::Kind::kExplicit:
      return "explicit";
  }
  return "?";
}

Scenario default_scenario(StackKind stack) {
  Scenario s;
  s.stack = stack;
  s.name = std::string("default_") + to_string(stack);
  return s;
}

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw ScenarioError(path + ": " + why);
}

void check_positive(double v, const std::string& path) {
  if (!(v > 0.0)) fail(path, "must be positive");
}

void check_fraction(double v, const std::string& path) {
  if (!(v >= 0.0 && v <= 1.0)) fail(path, "must be in [0, 1]");
}

void parse_radio(const obs::Json& node, const std::string& path,
                 RadioParams& out) {
  ObjectReader r(node, path);
  r.read_double("bandwidth_bps", out.bandwidth_bps);
  r.read_double("noise_w", out.noise_w);
  r.read_double("sinr_threshold", out.sinr_threshold);
  r.read_double("sensitivity_w", out.sensitivity_w);
  r.read_double("cs_threshold_w", out.cs_threshold_w);
  r.finish();
  check_positive(out.bandwidth_bps, path + ".bandwidth_bps");
}

void parse_energy(const obs::Json& node, const std::string& path,
                  EnergyModel& out) {
  ObjectReader r(node, path);
  r.read_double("tx_w", out.tx_w);
  r.read_double("rx_w", out.rx_w);
  r.read_double("idle_w", out.idle_w);
  r.read_double("sleep_w", out.sleep_w);
  r.finish();
}

Vec2 parse_point(const obs::Json& node, const std::string& path) {
  if (!node.is_array() || node.size() != 2 || !node.at(0).is_number() ||
      !node.at(1).is_number())
    fail(path, "expected an [x, y] pair of numbers");
  return Vec2{node.at(0).as_double(), node.at(1).as_double()};
}

void parse_deployment(const obs::Json& node, const std::string& path,
                      DeploymentSpec& out) {
  ObjectReader r(node, path);
  r.read_enum(
      "kind", out.kind,
      {{"connected_uniform_square",
        DeploymentSpec::Kind::kConnectedUniformSquare},
       {"uniform_square", DeploymentSpec::Kind::kUniformSquare},
       {"grid", DeploymentSpec::Kind::kGrid},
       {"rings", DeploymentSpec::Kind::kRings},
       {"explicit", DeploymentSpec::Kind::kExplicit}});

  // Which keys apply depends on the kind; anything else is rejected by
  // finish() below, so a "spacing" on a square deployment cannot be
  // silently ignored.
  using Kind = DeploymentSpec::Kind;
  const bool square = out.kind == Kind::kConnectedUniformSquare ||
                      out.kind == Kind::kUniformSquare ||
                      out.kind == Kind::kGrid;
  if (square) {
    r.read_int("n_sensors", out.n_sensors);
    r.read_double("side", out.side);
  }
  if (out.kind == Kind::kConnectedUniformSquare)
    r.read_double("sensor_range", out.sensor_range);
  if (out.kind == Kind::kConnectedUniformSquare ||
      out.kind == Kind::kUniformSquare)
    r.read_int("seed", out.seed);
  if (out.kind == Kind::kRings) {
    r.read_int("rings", out.rings);
    r.read_int("per_ring", out.per_ring);
    r.read_double("spacing", out.spacing);
  }
  if (out.kind == Kind::kExplicit) {
    if (const obs::Json* arr = r.child_array("sensors")) {
      out.sensors.clear();
      for (std::size_t i = 0; i < arr->size(); ++i)
        out.sensors.push_back(parse_point(
            arr->at(i), path + ".sensors[" + std::to_string(i) + "]"));
    }
    if (const obs::Json* head = r.take("head"))
      out.head = parse_point(*head, path + ".head");
  }
  r.finish();

  if (square && out.n_sensors == 0) fail(path + ".n_sensors", "must be >= 1");
  if (square) check_positive(out.side, path + ".side");
  if (out.kind == Kind::kConnectedUniformSquare)
    check_positive(out.sensor_range, path + ".sensor_range");
  if (out.kind == Kind::kRings) {
    if (out.rings == 0) fail(path + ".rings", "must be >= 1");
    if (out.per_ring == 0) fail(path + ".per_ring", "must be >= 1");
    check_positive(out.spacing, path + ".spacing");
  }
  if (out.kind == Kind::kExplicit && out.sensors.empty())
    fail(path + ".sensors", "explicit deployment needs at least one sensor");
}

void parse_traffic(const obs::Json& node, const std::string& path,
                   TrafficSpec& out) {
  ObjectReader r(node, path);
  const bool has_uniform = r.has("rate_bps");
  const bool has_list = r.has("rates_bps");
  if (has_uniform && has_list)
    fail(path, "rate_bps and rates_bps are mutually exclusive");
  r.read_double("rate_bps", out.rate_bps);
  if (const obs::Json* arr = r.child_array("rates_bps")) {
    out.rates_bps.clear();
    for (std::size_t i = 0; i < arr->size(); ++i) {
      const std::string at = path + ".rates_bps[" + std::to_string(i) + "]";
      if (!arr->at(i).is_number())
        fail(at, std::string("expected number, got ") +
                     json_type_name(arr->at(i).type()));
      out.rates_bps.push_back(arr->at(i).as_double());
      if (out.rates_bps.back() < 0.0) fail(at, "must be >= 0");
    }
  }
  r.finish();
  if (out.rate_bps < 0.0) fail(path + ".rate_bps", "must be >= 0");
}

void parse_run(const obs::Json& node, const std::string& path, RunSpec& out) {
  ObjectReader r(node, path);
  r.read_duration("duration", out.duration);
  r.read_duration("warmup", out.warmup);
  r.read_bool("record_perf", out.record_perf);
  r.finish();
  if (out.duration <= Time::zero()) fail(path + ".duration", "must be > 0");
  if (out.warmup >= out.duration)
    fail(path + ".warmup", "must be shorter than duration");
}

void parse_runtime(const obs::Json& node, const std::string& path,
                   Scenario& out) {
  ObjectReader r(node, path);
  r.read_int("trace_max_entries", out.trace_max_entries);
  r.read_int("route_workers", out.route_workers);
  r.read_bool("profile", out.profile);
  r.read_duration("sample_period", out.sample_period);
  r.finish();
  if (out.trace_max_entries == 0)
    fail(path + ".trace_max_entries", "must be >= 1");
}

void parse_protocol(const obs::Json& node, const std::string& path,
                    ProtocolConfig& out) {
  ObjectReader r(node, path);
  r.read_duration("cycle_period", out.cycle_period);
  r.read_int("data_bytes", out.data_bytes);
  r.read_int("control_bytes", out.control_bytes);
  r.read_int("ack_bytes", out.ack_bytes);
  r.read_duration("turnaround", out.turnaround);
  r.read_duration("slot_guard", out.slot_guard);
  r.read_duration("wake_margin", out.wake_margin);
  r.read_duration("wake_jitter", out.wake_jitter);
  r.read_int("oracle_order", out.oracle_order);
  r.read_bool("cache_oracle", out.cache_oracle);
  r.read_enum("routing", out.routing,
              {{"balanced_max_flow", RoutingPolicy::kBalancedMaxFlow},
               {"shortest_path", RoutingPolicy::kShortestPath}});
  r.read_bool("use_sectors", out.use_sectors);
  r.read_bool("rotate_paths", out.rotate_paths);
  r.read_int("queue_capacity", out.queue_capacity);
  r.read_int("max_packets_per_cycle", out.max_packets_per_cycle);
  r.read_int("max_retries", out.max_retries);
  r.read_duration("max_drain_window", out.max_drain_window);
  r.read_double("random_loss", out.random_loss);
  r.read_int("seed", out.seed);
  r.read_enum("propagation", out.propagation,
              {{"two_ray_ground", PropagationModel::kTwoRayGround},
               {"free_space", PropagationModel::kFreeSpace},
               {"log_normal_shadowing", PropagationModel::kLogNormalShadowing}});
  r.read_double("shadowing_sigma_db", out.shadowing_sigma_db);
  r.read_double("shadowing_exponent", out.shadowing_exponent);
  r.read_int("environment_seed", out.environment_seed);
  if (const obs::Json* radio = r.child_object("radio"))
    parse_radio(*radio, path + ".radio", out.radio);
  if (const obs::Json* e = r.child_object("sensor_energy"))
    parse_energy(*e, path + ".sensor_energy", out.sensor_energy);
  if (const obs::Json* e = r.child_object("head_energy"))
    parse_energy(*e, path + ".head_energy", out.head_energy);
  r.finish();

  if (out.data_bytes == 0) fail(path + ".data_bytes", "must be >= 1");
  if (out.oracle_order < 1) fail(path + ".oracle_order", "must be >= 1");
  if (out.queue_capacity == 0) fail(path + ".queue_capacity", "must be >= 1");
  check_fraction(out.random_loss, path + ".random_loss");
  if (out.cycle_period <= Time::zero())
    fail(path + ".cycle_period", "must be > 0");
}

void parse_recovery(const obs::Json& node, const std::string& path,
                    FaultRecoveryConfig& out) {
  ObjectReader r(node, path);
  r.read_bool("enabled", out.enabled);
  r.read_int("suspect_polls", out.suspect_polls);
  r.read_int("backoff_slots", out.backoff_slots);
  r.read_int("max_backoff_slots", out.max_backoff_slots);
  r.read_int("max_replans", out.max_replans);
  r.finish();
  if (out.suspect_polls == 0) fail(path + ".suspect_polls", "must be >= 1");
}

void parse_smac(const obs::Json& node, const std::string& path,
                SmacConfig& out) {
  ObjectReader r(node, path);
  r.read_duration("frame_period", out.frame_period);
  r.read_double("duty_cycle", out.duty_cycle);
  r.read_int("schedule_groups", out.schedule_groups);
  r.read_int("sync_every_frames", out.sync_every_frames);
  r.read_int("sync_bytes", out.sync_bytes);
  r.read_duration("difs", out.difs);
  r.read_duration("sifs", out.sifs);
  r.read_duration("backoff_slot", out.backoff_slot);
  r.read_int("contention_window", out.contention_window);
  r.read_int("cw_max", out.cw_max);
  r.read_int("retry_limit", out.retry_limit);
  r.read_int("rts_bytes", out.rts_bytes);
  r.read_int("cts_bytes", out.cts_bytes);
  r.read_int("ack_bytes", out.ack_bytes);
  r.read_int("data_bytes", out.data_bytes);
  r.read_duration("route_lifetime", out.route_lifetime);
  r.read_duration("rreq_retry_interval", out.rreq_retry_interval);
  r.read_int("rreq_retries", out.rreq_retries);
  r.read_int("rreq_bytes", out.rreq_bytes);
  r.read_int("rrep_bytes", out.rrep_bytes);
  r.read_duration("rreq_jitter", out.rreq_jitter);
  r.read_int("queue_capacity", out.queue_capacity);
  r.read_int("seed", out.seed);
  if (const obs::Json* radio = r.child_object("radio"))
    parse_radio(*radio, path + ".radio", out.radio);
  if (const obs::Json* e = r.child_object("energy"))
    parse_energy(*e, path + ".energy", out.energy);
  r.finish();

  if (!(out.duty_cycle > 0.0 && out.duty_cycle <= 1.0))
    fail(path + ".duty_cycle", "must be in (0, 1]");
  if (out.schedule_groups == 0)
    fail(path + ".schedule_groups", "must be >= 1");
  if (out.data_bytes == 0) fail(path + ".data_bytes", "must be >= 1");
  if (out.queue_capacity == 0) fail(path + ".queue_capacity", "must be >= 1");
  if (out.contention_window == 0)
    fail(path + ".contention_window", "must be >= 1");
  if (out.cw_max < out.contention_window)
    fail(path + ".cw_max", "must be >= contention_window");
  if (out.frame_period <= Time::zero())
    fail(path + ".frame_period", "must be > 0");
}

void parse_clusters(const obs::Json& node, const std::string& path,
                    ClusterFieldSpec& out) {
  ObjectReader r(node, path);
  r.read_int("grid_x", out.grid_x);
  r.read_int("grid_y", out.grid_y);
  r.read_double("pitch", out.pitch);
  r.read_enum("mode", out.mode,
              {{"shared", InterClusterMode::kShared},
               {"colored", InterClusterMode::kColored},
               {"token", InterClusterMode::kToken}});
  r.read_double("interference_range", out.interference_range);
  r.finish();
  if (out.grid_x == 0) fail(path + ".grid_x", "must be >= 1");
  if (out.grid_y == 0) fail(path + ".grid_y", "must be >= 1");
  check_positive(out.pitch, path + ".pitch");
  check_positive(out.interference_range, path + ".interference_range");
}

/// `num_sensors` is the count faultable node ids must stay below
/// (field-wide for multi_cluster; heads/sink cannot be faulted).
void parse_faults(const obs::Json& node, const std::string& path,
                  StackKind stack, std::size_t num_sensors, FaultPlan& out) {
  ObjectReader r(node, path);
  const auto check_node = [&](const obs::Json& v, const std::string& at) {
    if (!v.is_int())
      fail(at, std::string("expected integer, got ") +
                   json_type_name(v.type()));
    const std::int64_t id = v.as_int();
    if (id < 0 || static_cast<std::size_t>(id) >= num_sensors)
      fail(at, "sensor id " + std::to_string(id) + " out of range (" +
               std::to_string(num_sensors) + " sensors)");
    return static_cast<NodeId>(id);
  };

  if (const obs::Json* deaths = r.child_array("deaths")) {
    for (std::size_t i = 0; i < deaths->size(); ++i) {
      const std::string at = path + ".deaths[" + std::to_string(i) + "]";
      ObjectReader d(deaths->at(i), at);
      const obs::Json* node_id = d.take("node");
      if (node_id == nullptr) fail(at, "missing \"node\"");
      const NodeId id = check_node(*node_id, at + ".node");
      const bool scripted = d.has("at");
      const bool battery = d.has("battery_j");
      if (scripted == battery)
        fail(at, "expected exactly one of \"at\" (scripted death) or "
                 "\"battery_j\" (battery exhaustion)");
      if (scripted) {
        Time when = Time::zero();
        d.read_duration("at", when);
        out.kill_at(id, when);
      } else {
        double joules = 0.0;
        d.read_double("battery_j", joules);
        if (!(joules > 0.0)) fail(at + ".battery_j", "must be positive");
        out.kill_on_battery(id, joules);
      }
      d.finish();
    }
  }

  if (const obs::Json* links = r.child_array("degrade_links")) {
    if (links->size() > 0 && stack == StackKind::kSmac)
      fail(path + ".degrade_links",
           "not supported by the smac stack (AODV re-discovery is its only "
           "recovery; see SmacConfig::faults)");
    for (std::size_t i = 0; i < links->size(); ++i) {
      const std::string at = path + ".degrade_links[" + std::to_string(i) + "]";
      ObjectReader l(links->at(i), at);
      const obs::Json* a = l.take("a");
      const obs::Json* b = l.take("b");
      if (a == nullptr || b == nullptr) fail(at, "missing \"a\" or \"b\"");
      const NodeId na = check_node(*a, at + ".a");
      const NodeId nb = check_node(*b, at + ".b");
      Time begin = Time::zero(), end = Time::zero();
      double loss = 1.0;
      l.read_duration("begin", begin);
      l.read_duration("end", end);
      l.read_double("loss", loss);
      l.finish();
      if (end <= begin) fail(at + ".end", "must be after begin");
      check_fraction(loss, at + ".loss");
      out.degrade_link(na, nb, begin, end, loss);
    }
  }
  r.finish();
}

}  // namespace

Scenario parse_scenario(const obs::Json& doc) {
  ObjectReader r(doc, "scenario");
  Scenario s;
  r.read_string("name", s.name);
  r.read_enum("stack", s.stack,
              {{"polling", StackKind::kPolling},
               {"multi_cluster", StackKind::kMultiCluster},
               {"smac", StackKind::kSmac}});

  if (const obs::Json* d = r.child_object("deployment"))
    parse_deployment(*d, "scenario.deployment", s.deployment);
  if (const obs::Json* t = r.child_object("traffic"))
    parse_traffic(*t, "scenario.traffic", s.traffic);
  if (const obs::Json* run = r.child_object("run"))
    parse_run(*run, "scenario.run", s.run);
  if (const obs::Json* rt = r.child_object("runtime"))
    parse_runtime(*rt, "scenario.runtime", s);

  const bool polling_family = s.stack != StackKind::kSmac;
  const auto gate = [&](const char* key, bool valid) {
    if (r.has(key) && !valid)
      r.error(key, std::string("section not valid for the \"") +
                       to_string(s.stack) + "\" stack");
  };
  gate("protocol", polling_family);
  gate("recovery", polling_family);
  gate("clusters", s.stack == StackKind::kMultiCluster);
  gate("smac", s.stack == StackKind::kSmac);

  if (const obs::Json* p = r.child_object("protocol"))
    parse_protocol(*p, "scenario.protocol", s.protocol);
  if (const obs::Json* rec = r.child_object("recovery"))
    parse_recovery(*rec, "scenario.recovery", s.protocol.recovery);
  if (const obs::Json* c = r.child_object("clusters"))
    parse_clusters(*c, "scenario.clusters", s.clusters);
  if (const obs::Json* m = r.child_object("smac"))
    parse_smac(*m, "scenario.smac", s.smac);

  std::size_t faultable = s.deployment.sensor_count();
  if (s.stack == StackKind::kMultiCluster)
    faultable *= s.clusters.grid_x * s.clusters.grid_y;
  if (const obs::Json* f = r.child_object("faults")) {
    FaultPlan& plan =
        s.stack == StackKind::kSmac ? s.smac.faults : s.protocol.faults;
    parse_faults(*f, "scenario.faults", s.stack, faultable, plan);
  }
  r.finish();

  // Cross-section checks that need the deployment and stack together.
  if (s.stack == StackKind::kMultiCluster && s.protocol.use_sectors)
    fail("scenario.protocol.use_sectors",
         "not supported by the multi_cluster stack (heads drain their "
         "clusters whole)");
  if (!s.traffic.rates_bps.empty()) {
    if (s.stack == StackKind::kMultiCluster)
      fail("scenario.traffic.rates_bps",
           "not supported by the multi_cluster stack (clusters share one "
           "uniform rate)");
    if (s.traffic.rates_bps.size() != s.deployment.sensor_count())
      fail("scenario.traffic.rates_bps",
           "expected " + std::to_string(s.deployment.sensor_count()) +
               " entries (one per sensor), got " +
               std::to_string(s.traffic.rates_bps.size()));
  }
  return s;
}

Scenario parse_scenario_text(std::string_view text) {
  return parse_scenario(obs::parse_json(text));
}

}  // namespace mhp::scenario
