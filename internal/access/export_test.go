package access

// GroupStats exposes groupStats to the external discovery tests, which run
// on workload datasets, and the workload package imports this one.
var GroupStats = groupStats
