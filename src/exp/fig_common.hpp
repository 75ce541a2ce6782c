// Shared set-up for the figure-reproduction benches: the paper's §VI
// evaluation scenario (uniform square deployment, head at the centre,
// 200 kbps radio, 80-byte packets) with deterministic per-point seeds.
#pragma once

#include <cstdint>

#include "core/polling_simulation.hpp"
#include "net/deployment.hpp"
#include "util/rng.hpp"

namespace mhp::exp {

/// The evaluation square and radio range used throughout §VI.
inline constexpr double kSquareSide = 200.0;
inline constexpr double kSensorRange = 60.0;

/// Deterministic deployment for a sweep point.
inline Deployment eval_deployment(std::size_t sensors, std::uint64_t seed) {
  Rng rng(0x5ecu * 1000003u + seed);
  return deploy_connected_uniform_square(sensors, kSquareSide, kSensorRange,
                                         rng);
}

inline ProtocolConfig eval_protocol_config(std::uint64_t seed,
                                           bool use_sectors = false) {
  ProtocolConfig cfg;
  cfg.cycle_period = Time::ms(1000);
  cfg.oracle_order = 3;
  cfg.use_sectors = use_sectors;
  cfg.seed = seed;
  return cfg;
}

}  // namespace mhp::exp
