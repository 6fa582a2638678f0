/**
 * @file
 * Umbrella header: include everything the public VarSaw API offers.
 *
 * Fine-grained headers remain available for faster builds; this is
 * the convenience include used by examples and downstream users.
 */

#ifndef VARSAW_VARSAW_HH
#define VARSAW_VARSAW_HH

// Utilities
#include "util/bitops.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/pmf.hh"
#include "util/rng.hh"
#include "util/statistics.hh"
#include "util/table.hh"

// Pauli algebra
#include "pauli/commutation.hh"
#include "pauli/hamiltonian.hh"
#include "pauli/pauli_op.hh"
#include "pauli/pauli_string.hh"
#include "pauli/pauli_term.hh"
#include "pauli/subsetting.hh"

// Circuit simulation
#include "sim/circuit.hh"
#include "sim/density_matrix.hh"
#include "sim/gate.hh"
#include "sim/sim_engine.hh"
#include "sim/circuit_hash.hh"
#include "sim/job.hh"
#include "sim/sampling.hh"
#include "sim/state_cache.hh"
#include "sim/statevector.hh"

// Noise substrate
#include "noise/device_model.hh"
#include "noise/readout_error.hh"

// Execution runtime
#include "runtime/batch_executor.hh"
#include "runtime/job_ledger.hh"
#include "runtime/submitter.hh"

// Shared execution service
#include "service/execution_service.hh"
#include "service/scheduler.hh"

// Mitigation substrate
#include "mitigation/bayesian.hh"
#include "mitigation/executor.hh"
#include "mitigation/jigsaw.hh"
#include "mitigation/m3.hh"
#include "mitigation/mbm.hh"
#include "mitigation/zne.hh"

// VQA substrate
#include "vqa/ansatz.hh"
#include "vqa/estimator.hh"
#include "vqa/optimizer.hh"
#include "vqa/qaoa.hh"
#include "vqa/vqe.hh"
#include "vqa/zne_estimator.hh"

// Workloads
#include "chem/exact_solver.hh"
#include "chem/maxcut.hh"
#include "chem/molecules.hh"
#include "chem/spin_models.hh"

// VarSaw core
#include "core/cost_model.hh"
#include "core/selective.hh"
#include "core/spatial.hh"
#include "core/temporal.hh"
#include "core/varsaw.hh"

#endif // VARSAW_VARSAW_HH
