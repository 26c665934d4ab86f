package cost

import (
	"time"

	"plos/internal/transport"
)

// DeviceProfile describes a phone-class device relative to the server.
type DeviceProfile struct {
	// CPUSlowdown scales server-measured compute time to device time
	// (default 20× — a 2014 phone core against a 3.4 GHz desktop core).
	CPUSlowdown float64
	// RadioJPerByte is the marginal radio energy per byte (default
	// 0.25 µJ/B, WiFi-class).
	RadioJPerByte float64
	// RadioJPerMessage is the fixed per-message radio wakeup cost
	// (default 5 mJ).
	RadioJPerMessage float64
	// ComputeWatts is the SoC power draw while solving (default 2 W).
	ComputeWatts float64
}

// DefaultPhone returns the reference profile used by the experiments.
func DefaultPhone() DeviceProfile {
	return DeviceProfile{
		CPUSlowdown:      20,
		RadioJPerByte:    0.25e-6,
		RadioJPerMessage: 5e-3,
		ComputeWatts:     2,
	}
}

func (p DeviceProfile) withDefaults() DeviceProfile {
	def := DefaultPhone()
	if p.CPUSlowdown <= 0 {
		p.CPUSlowdown = def.CPUSlowdown
	}
	if p.RadioJPerByte <= 0 {
		p.RadioJPerByte = def.RadioJPerByte
	}
	if p.RadioJPerMessage <= 0 {
		p.RadioJPerMessage = def.RadioJPerMessage
	}
	if p.ComputeWatts <= 0 {
		p.ComputeWatts = def.ComputeWatts
	}
	return p
}

// DeviceTime converts a server-measured compute duration into the estimated
// on-device duration.
func (p DeviceProfile) DeviceTime(serverTime time.Duration) time.Duration {
	p = p.withDefaults()
	return time.Duration(float64(serverTime) * p.CPUSlowdown)
}

// CommEnergyJ estimates the radio energy (joules) a device spends on the
// given traffic.
func (p DeviceProfile) CommEnergyJ(s transport.Stats) float64 {
	return p.CommEnergyFromCounts(
		int64(s.MessagesSent+s.MessagesReceived),
		s.BytesSent+s.BytesReceived)
}

// CommEnergyFromCounts is CommEnergyJ over raw totals instead of a Stats
// struct — the form the observability layer's scrape-time energy gauge uses,
// fed from the registry's transport counters.
func (p DeviceProfile) CommEnergyFromCounts(msgs, bytes int64) float64 {
	p = p.withDefaults()
	return float64(float64(msgs)*p.RadioJPerMessage) + float64(float64(bytes)*p.RadioJPerByte)
}

// ComputeEnergyJ estimates the SoC energy (joules) for the given on-device
// compute duration.
func (p DeviceProfile) ComputeEnergyJ(deviceTime time.Duration) float64 {
	p = p.withDefaults()
	return deviceTime.Seconds() * p.ComputeWatts
}

// RawUploadBytes estimates what the centralized alternative would have
// cost the same device in upload volume: samples × dims × 8 bytes. The
// distributed design's headline saving (paper §V) is the ratio of this to
// the actual parameter traffic.
func RawUploadBytes(samples, dims int) int64 {
	return int64(samples) * int64(dims) * 8
}
