//===- liftbench/src/Calibration.h - Host speed reference -------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of work, independent of the repository's code, that the
/// end-to-end run times before every pass to learn how fast the CPU it is
/// on runs at that moment. Its parts imitate what a lift spends its time
/// on: building, hashing and freeing small expression trees (enumeration),
/// a switch-dispatched bytecode loop over small arrays (validation), string
/// keyed hash lookups (caches) and a priority queue (the search frontier).
///
//===----------------------------------------------------------------------===//

#ifndef LIFTBENCH_CALIBRATION_H
#define LIFTBENCH_CALIBRATION_H

namespace liftbench {

/// CPU time of the whole process (every thread, user and system).
double processCpuSeconds();

/// CPU seconds one run of the calibration work takes on the reference
/// machine: a 4-vCPU Xeon virtual machine while its host was quiet.
constexpr double ReferenceCalibrationSeconds = 0.011;

/// Runs the calibration work once and returns ReferenceCalibrationSeconds
/// over the CPU seconds it took: the factor that turns CPU time measured
/// now, on this CPU, into CPU time on the reference machine.
double referenceScale();

} // namespace liftbench

#endif // LIFTBENCH_CALIBRATION_H
