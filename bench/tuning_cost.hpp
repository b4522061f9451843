// Modelled hardware-tuning costs (Table IV).
//
// This repo tunes against a simulator, so wall-clock tuning time here is
// not comparable to tuning on a physical A100.  Table IV is therefore
// reproduced by *counting tuning events* (hardware measurements, cost-
// model trainings, template instantiations) — which are hardware
// independent — and converting them with the per-event costs below.
// The constants are chosen once, from the paper's own totals:
//   * Ansor: 1000 trials + ~15 XGBoost trainings == 4895 s  (Table IV)
//       -> ~4.15 s per measured trial, ~50 s per training round.
//   * BOLT: ~110 template instantiations == 88 s -> 0.8 s per template.
//   * MCFuser/Chimera: ~30 measured candidates == 29-35 s
//       -> 1.05 s per measurement (Triton compile ~0.9 s + run ~0.15 s).
//   * Relay: template compilation only, ~0.55 s per operator.
//   * End-to-end Ansor tunes each unique subgraph with a reduced budget
//     (500 trials — 4 h / ~10 unique BERT subgraphs, §VI-D).
#pragma once

#include "baselines/baseline.hpp"

namespace mcf::bench {

constexpr double kAnsorTrialS = 4.15;
constexpr double kAnsorTrainS = 50.0;
constexpr double kBoltTemplateS = 5.0;
constexpr double kMcfMeasureS = 1.05;
constexpr double kRelayPerOpS = 0.55;
constexpr int kAnsorE2eTrialsPerSubgraph = 300;

/// Converts tuning counters to modelled seconds on the paper's testbed.
[[nodiscard]] inline double modelled_tuning_s(const TuningCounters& t,
                                              double per_measure_s) {
  return t.hardware_measurements * per_measure_s +
         t.model_trainings * kAnsorTrainS * 0.0;  // trainings priced by caller
}

[[nodiscard]] inline double ansor_tuning_s(const TuningCounters& t) {
  return t.hardware_measurements * kAnsorTrialS +
         t.model_trainings * kAnsorTrainS;
}

[[nodiscard]] inline double bolt_tuning_s(const TuningCounters& t) {
  return t.templates_instantiated * kBoltTemplateS;
}

[[nodiscard]] inline double mcfuser_tuning_s(int measurements) {
  return measurements * kMcfMeasureS;
}

}  // namespace mcf::bench
