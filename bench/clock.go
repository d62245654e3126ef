package main

import "time"

// This file is the only place the benchmark reads the host clock.
// Everything the benchmark reports as host time goes through now and
// since; every sim.* metric and every digest is computed without them.

// hostTime is a host clock reading.
type hostTime = time.Time

// now reads the host clock.
func now() hostTime {
	return time.Now() //lint:allow determinism host time is the benchmark's product; sim.* metrics and digests never read it
}

// since is the host time elapsed from t0.
func since(t0 hostTime) time.Duration { return now().Sub(t0) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
