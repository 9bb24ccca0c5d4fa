// The process's only sanctioned wall-clock read.
//
// Determinism policy (docs/STATIC_ANALYSIS.md): simulation state must never
// depend on host time — every DES timestamp comes from Simulator::now().
// Code outside the DES that genuinely needs real time (trace_wall_now())
// gets it from this one helper, so dklint's DK-D001 check can ban
// std::chrono::*_clock::now() everywhere else in src/ and a reviewer can
// audit the full wall-clock surface by reading one function.
#pragma once

#include "common/units.hpp"

namespace dk {

/// Monotonic wall-clock nanoseconds (epoch unspecified; deltas only).
Nanos wall_clock_now();

}  // namespace dk
