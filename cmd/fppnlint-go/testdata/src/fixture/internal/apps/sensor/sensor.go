// Package sensor plants one jobreach bug, pinned by the golden reports: a
// job's Step reaches a wall-clock read through a helper.
package sensor

import "time"

// Sensor is a job behavior.
type Sensor struct{}

// Step samples the sensor, stamped with the wall clock.
func (Sensor) Step() int64 { return stamp() }

func stamp() int64 { return time.Now().UnixNano() }
