package obs

// Process-global metrics reported by the execution and serving layers.
// Per-store counters (pager I/O, B+-tree node loads, record decodes,
// statistics probes) are per-instance and exposed through
// mass.Store.Metrics / core.Engine.WriteMetrics instead.
var (
	// Execution layer — flushed once per iterator run, not per tuple.
	ExecRuns = NewCounter("vamana_exec_runs_total",
		"Iterator pipelines executed to completion or error.")
	ExecResults = NewCounter("vamana_exec_results_total",
		"Result tuples produced by completed iterator runs.")
	ExecEntriesScanned = NewCounter("vamana_exec_index_entries_scanned_total",
		"Index entries scanned by leaf operators across completed runs.")
	ExecAxisScans = NewCounter("vamana_exec_axis_scans_total",
		"Axis-scan bindings performed across completed runs (all axes).")

	// Serving layer (core.Engine.QueryContext).
	QueryLatency = NewHistogram("vamana_query_latency_ns",
		"End-to-end latency of DB.Query calls in nanoseconds.")
	QueriesServedCached = NewCounter("vamana_queries_served_cached_total",
		"DB.Query calls whose plan came from the plan cache.")
	QueriesCompiled = NewCounter("vamana_queries_compiled_total",
		"DB.Query calls that compiled and optimized a fresh plan.")
	SlowQueries = NewCounter("vamana_slow_queries_total",
		"Queries exceeding the configured slow-query threshold.")
	TracesSampled = NewCounter("vamana_traces_sampled_total",
		"Queries sampled for span recording by the 1-in-N trace sampler.")

	// Cost-model observatory: est-vs-act cardinality accuracy. Per-class
	// q-error profiles are per-engine (core.Engine.CostProfile); these
	// are the process-wide roll-ups.
	CostObservations = NewCounter("vamana_cost_observations_total",
		"Per-operator estimated-vs-actual cardinality pairs folded into q-error profiles.")
	CostUnderestimates = NewCounter("vamana_cost_underestimates_total",
		"Observations where the actual cardinality exceeded the estimate (upper-bound miss).")

	// Serving daemon (internal/serve): admission-control outcomes and
	// instantaneous load. Rejections are split by reason so an operator
	// can tell a saturated queue from an undersized tenant cap from a
	// drain in progress.
	ServerAdmitted = NewCounter("vamana_server_admitted_total",
		"Requests admitted to execute (immediately or after queueing).")
	ServerQueuedTotal = NewCounter("vamana_server_queued_total",
		"Requests that waited in the admission queue before a decision.")
	ServerRejectedQueueFull = NewCounter("vamana_server_rejected_queue_full_total",
		"Requests rejected because the admission queue was at depth.")
	ServerRejectedQueueTimeout = NewCounter("vamana_server_rejected_queue_timeout_total",
		"Queued requests rejected after waiting the maximum queue time.")
	ServerRejectedDraining = NewCounter("vamana_server_rejected_draining_total",
		"Requests rejected because the server was draining.")
	ServerRejectedTenant = NewCounter("vamana_server_rejected_tenant_total",
		"Requests rejected at a tenant's in-flight cap.")
	ServerQueueCanceled = NewCounter("vamana_server_queue_canceled_total",
		"Queued requests abandoned by the client before admission.")
	ServerInflight = NewGauge("vamana_server_inflight",
		"Requests currently executing (admitted, not yet finished).")
	ServerQueueDepth = NewGauge("vamana_server_queue_depth",
		"Requests currently waiting in the admission queue.")
	ServerQueueWait = NewHistogram("vamana_server_queue_wait_ns",
		"Time admitted requests spent in the admission queue in nanoseconds.")

	// Per-tenant SLO histograms: end-to-end request latency and
	// admission queue wait, labeled by tenant and outcome ("ok",
	// "rejected", "error", "canceled" — serve.classifyOutcome). These
	// are what /metrics p50/p95/p99 per tenant and the TenantStats
	// latency quantiles are computed from.
	ServerRequestLatency = NewHistogramVec("vamana_server_request_latency_ns",
		"End-to-end /v1/query latency per tenant and outcome in nanoseconds.",
		"tenant", "outcome")
	ServerRequestQueueWait = NewHistogramVec("vamana_server_request_queue_wait_ns",
		"Admission queue wait per tenant and outcome in nanoseconds (zero when a slot was free on arrival).",
		"tenant", "outcome")

	// Per-tenant traffic: the serving daemon stamps every outcome with
	// the tenant label, so dashboards can attribute load and rejections.
	TenantQueries = NewCounterVec("vamana_tenant_queries_total", "tenant",
		"Queries finished per tenant (successful or failed).")
	TenantRejections = NewCounterVec("vamana_tenant_rejections_total", "tenant",
		"Admission rejections per tenant (all reasons).")
	TenantResults = NewCounterVec("vamana_tenant_results_total", "tenant",
		"Result nodes streamed per tenant.")
	TenantUncached = NewCounterVec("vamana_tenant_uncached_compiles_total", "tenant",
		"Queries compiled without plan-cache retention because the tenant's plan quota was full.")

	// Governance layer: how query runs were stopped early. Classified at
	// run finish from the iterator's terminal error.
	QueriesCanceled = NewCounter("vamana_queries_canceled_total",
		"Query runs stopped because the caller's context was canceled.")
	QueriesDeadlineExceeded = NewCounter("vamana_queries_deadline_exceeded_total",
		"Query runs stopped by a context deadline or per-query timeout.")
	QueriesBudgetExceeded = NewCounter("vamana_queries_budget_exceeded_total",
		"Query runs stopped by a per-query resource budget (results, pages, records).")
)
