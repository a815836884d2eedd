package durable

// WALFile re-exports the internal file handle interface so external test
// packages (package durable_test) can inject failpoint implementations —
// the reader-latency harness drives a whole feo.Session through a WAL
// whose fsync stalls on command.
type WALFile = walFile

// newWALFile is the factory the in-package fault-injection tests assign.
// newFile calls through it, so one assignment reaches the WAL and the
// snapshot temp file alike.
var newWALFile = newFile

func init() {
	newFile = func(path string, flag int) (walFile, error) { return newWALFile(path, flag) }
}

// SetNewWALFile swaps the file factory (WAL and snapshot temp file) and
// returns a restore func. Test-only; the in-package fault-injection tests
// reassign newWALFile directly.
func SetNewWALFile(f func(path string, flag int) (WALFile, error)) (restore func()) {
	old := newWALFile
	newWALFile = func(path string, flag int) (walFile, error) { return f(path, flag) }
	return func() { newWALFile = old }
}

// SetFailpoint swaps the compaction failpoint and returns a restore func.
func SetFailpoint(f func(step string) error) (restore func()) {
	old := failpoint
	failpoint = f
	return func() { failpoint = old }
}
