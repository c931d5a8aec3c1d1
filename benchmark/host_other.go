//go:build !unix

package main

import "time"

// processCPUTime is unavailable here; host.cpu_ns_per_op reads 0.
func processCPUTime() time.Duration { return 0 }
