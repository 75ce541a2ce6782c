// Sensor/cluster lifetime estimation.
//
// §III-E models a sensor's power consumption rate as α·(transmission load)
// + β·(polling time); measured simulations integrate the radio energy
// meters instead.  Cluster lifetime uses the first-death criterion: the
// battery of the worst-drained sensor bounds the network's useful life
// (SimulationReport::lifetime_s divides a capacity by the largest draw).
#pragma once

namespace mhp {

struct BatteryModel {
  /// Energy budget in joules.  Default ≈ one CR2477 coin cell.
  double capacity_j = 2400.0;
};

}  // namespace mhp
