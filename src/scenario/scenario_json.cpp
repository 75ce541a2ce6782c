// Scenario ⇄ JSON: the strict reader and the canonical writer.
//
// Each fixed-key section (radio, energy, run, runtime, protocol,
// recovery, smac, clusters) lists its keys once, in canonical dump
// order, as a `fields(v, section)` function that both directions walk.
// FieldReader reads every listed key through an ObjectReader, so an
// unknown or misspelled key anywhere in the document is an error naming
// the exact path — never a silently ignored field.  FieldWriter emits
// every listed key in order, so dump(parse(dump(s))) is byte-identical
// to dump(s).  Each enum's names live in one {name, value} table.
//
// Deployment, traffic and faults have keys that depend on values (the
// deployment kind, a rate list, the cause of a death) and keep
// hand-written code both ways; keys invalid for the deployment kind or
// stack are omitted from the dump, since emitting them would make it
// un-parseable.  Range checks (ranges, cross-field consistency,
// per-stack section validity) run after the structural read so their
// messages carry the same path discipline.
#include <concepts>
#include <span>
#include <string>
#include <type_traits>

#include "scenario/json_cursor.hpp"
#include "scenario/scenario.hpp"

namespace mhp::scenario {

namespace {

using obs::Json;

// ---------- enum names ----------

std::span<const EnumName<StackKind>> enum_names(StackKind) {
  static constexpr EnumName<StackKind> kNames[] = {
      {"polling", StackKind::kPolling},
      {"multi_cluster", StackKind::kMultiCluster},
      {"smac", StackKind::kSmac}};
  return kNames;
}

std::span<const EnumName<DeploymentSpec::Kind>> enum_names(
    DeploymentSpec::Kind) {
  static constexpr EnumName<DeploymentSpec::Kind> kNames[] = {
      {"connected_uniform_square",
       DeploymentSpec::Kind::kConnectedUniformSquare},
      {"uniform_square", DeploymentSpec::Kind::kUniformSquare},
      {"grid", DeploymentSpec::Kind::kGrid},
      {"rings", DeploymentSpec::Kind::kRings},
      {"explicit", DeploymentSpec::Kind::kExplicit}};
  return kNames;
}

std::span<const EnumName<RoutingPolicy>> enum_names(RoutingPolicy) {
  static constexpr EnumName<RoutingPolicy> kNames[] = {
      {"balanced_max_flow", RoutingPolicy::kBalancedMaxFlow},
      {"shortest_path", RoutingPolicy::kShortestPath}};
  return kNames;
}

std::span<const EnumName<PropagationModel>> enum_names(PropagationModel) {
  static constexpr EnumName<PropagationModel> kNames[] = {
      {"two_ray_ground", PropagationModel::kTwoRayGround},
      {"free_space", PropagationModel::kFreeSpace},
      {"log_normal_shadowing", PropagationModel::kLogNormalShadowing}};
  return kNames;
}

std::span<const EnumName<InterClusterMode>> enum_names(InterClusterMode) {
  static constexpr EnumName<InterClusterMode> kNames[] = {
      {"shared", InterClusterMode::kShared},
      {"colored", InterClusterMode::kColored},
      {"token", InterClusterMode::kToken}};
  return kNames;
}

template <typename E>
const char* enum_name(E value) {
  for (const auto& [name, v] : enum_names(value))
    if (v == value) return name;
  return "?";
}

// ---------- field lists ----------
//
// `fields(v, section)` calls v(key, member) for every key of a
// fixed-key section.  The writer passes a const section and the reader a
// mutable one, hence the SectionOf constraint.

template <typename T, typename U>
concept SectionOf = std::same_as<std::remove_const_t<T>, U>;

template <typename V, SectionOf<RadioParams> R>
void fields(V& v, R& r) {
  v("bandwidth_bps", r.bandwidth_bps);
  v("noise_w", r.noise_w);
  v("sinr_threshold", r.sinr_threshold);
  v("sensitivity_w", r.sensitivity_w);
  v("cs_threshold_w", r.cs_threshold_w);
}

template <typename V, SectionOf<EnergyModel> E>
void fields(V& v, E& e) {
  v("tx_w", e.tx_w);
  v("rx_w", e.rx_w);
  v("idle_w", e.idle_w);
  v("sleep_w", e.sleep_w);
}

template <typename V, SectionOf<RunSpec> R>
void fields(V& v, R& r) {
  v("duration", r.duration);
  v("warmup", r.warmup);
  v("record_perf", r.record_perf);
}

/// The "runtime" section: its keys are members of Scenario itself.
template <typename Sc>
struct RuntimeKeys {
  Sc& s;
};

template <typename V, typename Sc>
void fields(V& v, const RuntimeKeys<Sc>& rt) {
  v("trace_max_entries", rt.s.trace_max_entries);
  v("route_workers", rt.s.route_workers);
  v("profile", rt.s.profile);
  v("sample_period", rt.s.sample_period);
}

template <typename V, SectionOf<ProtocolConfig> P>
void fields(V& v, P& p) {
  v("cycle_period", p.cycle_period);
  v("data_bytes", p.data_bytes);
  v("control_bytes", p.control_bytes);
  v("ack_bytes", p.ack_bytes);
  v("turnaround", p.turnaround);
  v("slot_guard", p.slot_guard);
  v("wake_margin", p.wake_margin);
  v("wake_jitter", p.wake_jitter);
  v("oracle_order", p.oracle_order);
  v("routing", p.routing);
  v("use_sectors", p.use_sectors);
  v("rotate_paths", p.rotate_paths);
  v("queue_capacity", p.queue_capacity);
  v("max_packets_per_cycle", p.max_packets_per_cycle);
  v("max_retries", p.max_retries);
  v("max_drain_window", p.max_drain_window);
  v("random_loss", p.random_loss);
  v("seed", p.seed);
  v("propagation", p.propagation);
  v("shadowing_sigma_db", p.shadowing_sigma_db);
  v("shadowing_exponent", p.shadowing_exponent);
  v("environment_seed", p.environment_seed);
  v("radio", p.radio);
  v("sensor_energy", p.sensor_energy);
  v("head_energy", p.head_energy);
}

template <typename V, SectionOf<FaultRecoveryConfig> R>
void fields(V& v, R& r) {
  v("enabled", r.enabled);
  v("suspect_polls", r.suspect_polls);
  v("backoff_slots", r.backoff_slots);
  v("max_backoff_slots", r.max_backoff_slots);
  v("max_replans", r.max_replans);
}

template <typename V, SectionOf<SmacConfig> S>
void fields(V& v, S& s) {
  v("frame_period", s.frame_period);
  v("duty_cycle", s.duty_cycle);
  v("schedule_groups", s.schedule_groups);
  v("sync_every_frames", s.sync_every_frames);
  v("sync_bytes", s.sync_bytes);
  v("difs", s.difs);
  v("sifs", s.sifs);
  v("backoff_slot", s.backoff_slot);
  v("contention_window", s.contention_window);
  v("cw_max", s.cw_max);
  v("retry_limit", s.retry_limit);
  v("rts_bytes", s.rts_bytes);
  v("cts_bytes", s.cts_bytes);
  v("ack_bytes", s.ack_bytes);
  v("data_bytes", s.data_bytes);
  v("route_lifetime", s.route_lifetime);
  v("rreq_retry_interval", s.rreq_retry_interval);
  v("rreq_retries", s.rreq_retries);
  v("rreq_bytes", s.rreq_bytes);
  v("rrep_bytes", s.rrep_bytes);
  v("rreq_jitter", s.rreq_jitter);
  v("queue_capacity", s.queue_capacity);
  v("seed", s.seed);
  v("radio", s.radio);
  v("energy", s.energy);
}

template <typename V, SectionOf<ClusterFieldSpec> C>
void fields(V& v, C& c) {
  v("grid_x", c.grid_x);
  v("grid_y", c.grid_y);
  v("pitch", c.pitch);
  v("mode", c.mode);
  v("interference_range", c.interference_range);
}

// ---------- range checks ----------

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw ScenarioError(path + ": " + why);
}

void check_positive(double v, const std::string& path) {
  if (!(v > 0.0)) fail(path, "must be positive");
}

void check_fraction(double v, const std::string& path) {
  if (!(v >= 0.0 && v <= 1.0)) fail(path, "must be in [0, 1]");
}

void check(const RadioParams& r, const std::string& path) {
  check_positive(r.bandwidth_bps, path + ".bandwidth_bps");
}

void check(const EnergyModel&, const std::string&) {}

void check(const RunSpec& r, const std::string& path) {
  if (r.duration <= Time::zero()) fail(path + ".duration", "must be > 0");
  if (r.warmup >= r.duration)
    fail(path + ".warmup", "must be shorter than duration");
}

void check(const RuntimeKeys<Scenario>& rt, const std::string& path) {
  if (rt.s.trace_max_entries == 0)
    fail(path + ".trace_max_entries", "must be >= 1");
}

void check(const ProtocolConfig& p, const std::string& path) {
  if (p.data_bytes == 0) fail(path + ".data_bytes", "must be >= 1");
  if (p.oracle_order < 1) fail(path + ".oracle_order", "must be >= 1");
  if (p.queue_capacity == 0) fail(path + ".queue_capacity", "must be >= 1");
  check_fraction(p.random_loss, path + ".random_loss");
  if (p.cycle_period <= Time::zero())
    fail(path + ".cycle_period", "must be > 0");
}

void check(const FaultRecoveryConfig& r, const std::string& path) {
  if (r.suspect_polls == 0) fail(path + ".suspect_polls", "must be >= 1");
}

void check(const SmacConfig& s, const std::string& path) {
  if (!(s.duty_cycle > 0.0 && s.duty_cycle <= 1.0))
    fail(path + ".duty_cycle", "must be in (0, 1]");
  if (s.schedule_groups == 0)
    fail(path + ".schedule_groups", "must be >= 1");
  if (s.data_bytes == 0) fail(path + ".data_bytes", "must be >= 1");
  if (s.queue_capacity == 0) fail(path + ".queue_capacity", "must be >= 1");
  if (s.contention_window == 0)
    fail(path + ".contention_window", "must be >= 1");
  if (s.cw_max < s.contention_window)
    fail(path + ".cw_max", "must be >= contention_window");
  if (s.frame_period <= Time::zero())
    fail(path + ".frame_period", "must be > 0");
}

void check(const ClusterFieldSpec& c, const std::string& path) {
  if (c.grid_x == 0) fail(path + ".grid_x", "must be >= 1");
  if (c.grid_y == 0) fail(path + ".grid_y", "must be >= 1");
  check_positive(c.pitch, path + ".pitch");
  check_positive(c.interference_range, path + ".interference_range");
}

// ---------- reader ----------

template <typename S>
void read_section(const Json& node, const std::string& path, S& out);

/// Reads each listed key through an ObjectReader; absent keys keep
/// their defaults.
struct FieldReader {
  ObjectReader& r;

  void operator()(const char* key, bool& x) { r.read_bool(key, x); }
  void operator()(const char* key, double& x) { r.read_double(key, x); }
  void operator()(const char* key, Time& x) { r.read_duration(key, x); }
  template <std::integral T>
  void operator()(const char* key, T& x) {
    r.read_int(key, x);
  }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(const char* key, E& x) {
    r.read_enum(key, x, enum_names(x));
  }
  /// A nested fixed-key section.
  template <typename S>
  void operator()(const char* key, S& section) {
    if (const Json* node = r.child_object(key))
      read_section(*node, r.path() + "." + key, section);
  }
};

/// Read every listed key of `out`, reject the rest, then range-check.
template <typename S>
void read_section(const Json& node, const std::string& path, S& out) {
  ObjectReader r(node, path);
  FieldReader read{r};
  fields(read, out);
  r.finish();
  check(out, path);
}

Vec2 parse_point(const Json& node, const std::string& path) {
  if (!node.is_array() || node.size() != 2 || !node.at(0).is_number() ||
      !node.at(1).is_number())
    fail(path, "expected an [x, y] pair of numbers");
  return Vec2{node.at(0).as_double(), node.at(1).as_double()};
}

using Kind = DeploymentSpec::Kind;

bool square_kind(Kind kind) {
  return kind == Kind::kConnectedUniformSquare ||
         kind == Kind::kUniformSquare || kind == Kind::kGrid;
}

bool seeded_kind(Kind kind) {
  return kind == Kind::kConnectedUniformSquare || kind == Kind::kUniformSquare;
}

void parse_deployment(const Json& node, const std::string& path,
                      DeploymentSpec& out) {
  ObjectReader r(node, path);
  r.read_enum("kind", out.kind, enum_names(out.kind));

  // Which keys apply depends on the kind; anything else is rejected by
  // finish() below, so a "spacing" on a square deployment cannot be
  // silently ignored.
  const bool square = square_kind(out.kind);
  if (square) {
    r.read_int("n_sensors", out.n_sensors);
    r.read_double("side", out.side);
  }
  if (out.kind == Kind::kConnectedUniformSquare)
    r.read_double("sensor_range", out.sensor_range);
  if (seeded_kind(out.kind)) r.read_int("seed", out.seed);
  if (out.kind == Kind::kRings) {
    r.read_int("rings", out.rings);
    r.read_int("per_ring", out.per_ring);
    r.read_double("spacing", out.spacing);
  }
  if (out.kind == Kind::kExplicit) {
    if (const Json* arr = r.child_array("sensors")) {
      out.sensors.clear();
      for (std::size_t i = 0; i < arr->size(); ++i)
        out.sensors.push_back(parse_point(
            arr->at(i), path + ".sensors[" + std::to_string(i) + "]"));
    }
    if (const Json* head = r.take("head"))
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

void parse_traffic(const Json& node, const std::string& path,
                   TrafficSpec& out) {
  ObjectReader r(node, path);
  const bool has_uniform = r.has("rate_bps");
  const bool has_list = r.has("rates_bps");
  if (has_uniform && has_list)
    fail(path, "rate_bps and rates_bps are mutually exclusive");
  r.read_double("rate_bps", out.rate_bps);
  if (const Json* arr = r.child_array("rates_bps")) {
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

/// `num_sensors` is the count faultable node ids must stay below
/// (field-wide for multi_cluster; heads/sink cannot be faulted).
void parse_faults(const Json& node, const std::string& path, StackKind stack,
                  std::size_t num_sensors, FaultPlan& out) {
  ObjectReader r(node, path);
  const auto check_node = [&](const Json& v, const std::string& at) {
    if (!v.is_int())
      fail(at, std::string("expected integer, got ") +
                   json_type_name(v.type()));
    const std::int64_t id = v.as_int();
    if (id < 0 || static_cast<std::size_t>(id) >= num_sensors)
      fail(at, "sensor id " + std::to_string(id) + " out of range (" +
               std::to_string(num_sensors) + " sensors)");
    return static_cast<NodeId>(id);
  };

  if (const Json* deaths = r.child_array("deaths")) {
    for (std::size_t i = 0; i < deaths->size(); ++i) {
      const std::string at = path + ".deaths[" + std::to_string(i) + "]";
      ObjectReader d(deaths->at(i), at);
      const Json* node_id = d.take("node");
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

  if (const Json* links = r.child_array("degrade_links")) {
    if (links->size() > 0 && stack == StackKind::kSmac)
      fail(path + ".degrade_links",
           "not supported by the smac stack (AODV re-discovery is its only "
           "recovery; see SmacConfig::faults)");
    for (std::size_t i = 0; i < links->size(); ++i) {
      const std::string at = path + ".degrade_links[" + std::to_string(i) + "]";
      ObjectReader l(links->at(i), at);
      const Json* a = l.take("a");
      const Json* b = l.take("b");
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

// ---------- writer ----------

template <typename S>
Json write_section(const S& section);

/// Emits each listed key, in list order, into `out`.
struct FieldWriter {
  Json& out;

  template <typename T>
    requires std::is_arithmetic_v<T>
  void operator()(const char* key, const T& x) {
    out.set(key, Json(x));
  }
  void operator()(const char* key, const Time& x) {
    out.set(key, Json(format_duration(x)));
  }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(const char* key, const E& x) {
    out.set(key, Json(enum_name(x)));
  }
  /// A nested fixed-key section.
  template <typename S>
  void operator()(const char* key, const S& section) {
    out.set(key, write_section(section));
  }
};

template <typename S>
Json write_section(const S& section) {
  Json out = Json::object();
  FieldWriter write{out};
  fields(write, section);
  return out;
}

Json dump_point(Vec2 p) {
  Json arr = Json::array();
  arr.push_back(Json(p.x));
  arr.push_back(Json(p.y));
  return arr;
}

Json dump_deployment(const DeploymentSpec& d) {
  Json out = Json::object();
  out.set("kind", Json(enum_name(d.kind)));
  if (square_kind(d.kind)) {
    out.set("n_sensors", Json(d.n_sensors));
    out.set("side", Json(d.side));
  }
  if (d.kind == Kind::kConnectedUniformSquare)
    out.set("sensor_range", Json(d.sensor_range));
  if (seeded_kind(d.kind)) out.set("seed", Json(d.seed));
  if (d.kind == Kind::kRings) {
    out.set("rings", Json(d.rings));
    out.set("per_ring", Json(d.per_ring));
    out.set("spacing", Json(d.spacing));
  }
  if (d.kind == Kind::kExplicit) {
    Json sensors = Json::array();
    for (const Vec2& p : d.sensors) sensors.push_back(dump_point(p));
    out.set("sensors", std::move(sensors));
    out.set("head", dump_point(d.head));
  }
  return out;
}

Json dump_traffic(const TrafficSpec& t) {
  Json out = Json::object();
  if (t.rates_bps.empty()) {
    out.set("rate_bps", Json(t.rate_bps));
  } else {
    Json rates = Json::array();
    for (const double r : t.rates_bps) rates.push_back(Json(r));
    out.set("rates_bps", std::move(rates));
  }
  return out;
}

Json dump_faults(const FaultPlan& plan) {
  Json deaths = Json::array();
  for (const NodeDeath& d : plan.deaths()) {
    Json entry = Json::object();
    entry.set("node", Json(static_cast<std::int64_t>(d.node)));
    if (d.cause == NodeDeath::Cause::kScripted)
      entry.set("at", Json(format_duration(d.at)));
    else
      entry.set("battery_j", Json(d.battery_j));
    deaths.push_back(std::move(entry));
  }
  Json links = Json::array();
  for (const LinkDegradation& l : plan.degradations()) {
    links.push_back(Json::object()
                        .set("a", Json(static_cast<std::int64_t>(l.a)))
                        .set("b", Json(static_cast<std::int64_t>(l.b)))
                        .set("begin", Json(format_duration(l.begin)))
                        .set("end", Json(format_duration(l.end)))
                        .set("loss", Json(l.loss)));
  }
  return Json::object()
      .set("deaths", std::move(deaths))
      .set("degrade_links", std::move(links));
}

}  // namespace

const char* to_string(StackKind stack) { return enum_name(stack); }

const char* to_string(DeploymentSpec::Kind kind) { return enum_name(kind); }

const char* to_string(InterClusterMode mode) { return enum_name(mode); }

Scenario default_scenario(StackKind stack) {
  Scenario s;
  s.stack = stack;
  s.name = std::string("default_") + to_string(stack);
  return s;
}

Scenario parse_scenario(const Json& doc) {
  ObjectReader r(doc, "scenario");
  FieldReader read{r};
  Scenario s;
  r.read_string("name", s.name);
  read("stack", s.stack);

  if (const Json* d = r.child_object("deployment"))
    parse_deployment(*d, "scenario.deployment", s.deployment);
  if (const Json* t = r.child_object("traffic"))
    parse_traffic(*t, "scenario.traffic", s.traffic);
  read("run", s.run);
  RuntimeKeys<Scenario> runtime{s};
  read("runtime", runtime);

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

  read("protocol", s.protocol);
  read("recovery", s.protocol.recovery);
  read("clusters", s.clusters);
  read("smac", s.smac);

  std::size_t faultable = s.deployment.sensor_count();
  if (s.stack == StackKind::kMultiCluster)
    faultable *= s.clusters.grid_x * s.clusters.grid_y;
  if (const Json* f = r.child_object("faults")) {
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

Json scenario_to_json(const Scenario& s) {
  Json doc = Json::object();
  FieldWriter write{doc};
  doc.set("name", Json(s.name));
  write("stack", s.stack);
  doc.set("deployment", dump_deployment(s.deployment));
  doc.set("traffic", dump_traffic(s.traffic));
  write("run", s.run);
  write("runtime", RuntimeKeys<const Scenario>{s});
  if (s.stack != StackKind::kSmac) {
    write("protocol", s.protocol);
    write("recovery", s.protocol.recovery);
  }
  if (s.stack == StackKind::kMultiCluster) write("clusters", s.clusters);
  if (s.stack == StackKind::kSmac) write("smac", s.smac);
  doc.set("faults", dump_faults(s.stack == StackKind::kSmac
                                    ? s.smac.faults
                                    : s.protocol.faults));
  return doc;
}

}  // namespace mhp::scenario
