package bufpool

// MaxRetained exposes the retention cap to the external tests.
const MaxRetained = maxRetained
