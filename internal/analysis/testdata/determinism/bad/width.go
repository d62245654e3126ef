package bad

import "runtime"

// Shards splits work by the host's width, so the shard layout — and
// anything folded shard by shard — changes from machine to machine.
func Shards(n int) int { return n / runtime.GOMAXPROCS(0) }

// Cores reads the other width source.
func Cores() int { return runtime.NumCPU() }
