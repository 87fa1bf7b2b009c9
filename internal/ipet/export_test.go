package ipet

// SetTestCrashJob arms the solve-job crash hook for the external tests:
// j+1 makes job j panic, 0 disarms it.
func SetTestCrashJob(j int32) { testCrashJob.Store(j) }
