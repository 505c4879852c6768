// Fixture: the "memnet" path segment is not exempt. The fabric runs
// each handler inside the caller's RoundTrip, so a go statement there
// is reported like anywhere else.
package memnet

func serveAsync(handle func()) {
	go handle() // want `naked go statement outside the concurrency packages`
}
