#pragma once

/// \file workloads.hpp
/// The four workloads of treecode_bench. Each one generates its inputs from
/// Args::seed, sets up (several times, reporting the median as setup_s),
/// runs ops for Args::seconds, checks every output, and fills the report's
/// end-to-end metrics: setup_s, op_p50_s, op_p90_s, rel_error,
/// bytes_per_source and peak_rss_mb. A traced run also records spans and
/// fills the per-layer metrics (probes.hpp). README.md says why each
/// workload exists and what one op is.

#include "harness.hpp"

namespace treecode::suite {

/// GMRES(10) solves of the paper's Table-3 BEM problem; one op is one
/// SingleLayerOperator::apply.
void run_bem_solve(const Args& args, Tracer& tracer, Report& report);

/// Cold one-shot Barnes-Hut on overlapped Gaussians; one op is Tree build +
/// BarnesHutEvaluator construction + evaluate.
void run_bh_cold(const Args& args, Tracer& tracer, Report& report);

/// Open-loop Poisson load on a two-tenant EvalService; one op is one
/// try_submit -> Ticket::wait request, timed from its scheduled send time.
void run_service_open(const Args& args, Tracer& tracer, Report& report);

/// Zipf-distributed target sets through one EvalSession's plan cache; one
/// op is try_update_charges + try_compile + try_evaluate.
void run_plan_churn(const Args& args, Tracer& tracer, Report& report);

}  // namespace treecode::suite
