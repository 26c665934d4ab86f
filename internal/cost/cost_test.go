package cost

import (
	"math"
	"testing"
	"time"

	"plos/internal/transport"
)

func TestDeviceTime(t *testing.T) {
	p := DeviceProfile{CPUSlowdown: 10}
	if got := p.DeviceTime(time.Second); got != 10*time.Second {
		t.Errorf("DeviceTime = %v", got)
	}
	// Zero profile uses the default 20x.
	var def DeviceProfile
	if got := def.DeviceTime(time.Second); got != 20*time.Second {
		t.Errorf("default DeviceTime = %v", got)
	}
}

func TestCommEnergy(t *testing.T) {
	p := DeviceProfile{RadioJPerByte: 1e-6, RadioJPerMessage: 1e-3}
	s := transport.Stats{MessagesSent: 2, MessagesReceived: 3, BytesSent: 1000, BytesReceived: 500}
	got := p.CommEnergyJ(s)
	want := 5*1e-3 + 1500*1e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CommEnergyJ = %v, want %v", got, want)
	}
}

func TestComputeEnergy(t *testing.T) {
	p := DeviceProfile{ComputeWatts: 3}
	if got := p.ComputeEnergyJ(2 * time.Second); math.Abs(got-6) > 1e-12 {
		t.Errorf("ComputeEnergyJ = %v", got)
	}
}

func TestRawUploadBytes(t *testing.T) {
	// 140 samples × 120 dims × 8 bytes = 134400 — what a body-sensor user
	// would upload under the centralized design.
	if got := RawUploadBytes(140, 120); got != 134400 {
		t.Errorf("RawUploadBytes = %d", got)
	}
}

func TestDefaultPhoneComplete(t *testing.T) {
	p := DefaultPhone()
	if p.CPUSlowdown <= 0 || p.RadioJPerByte <= 0 || p.RadioJPerMessage <= 0 || p.ComputeWatts <= 0 {
		t.Errorf("incomplete default profile: %+v", p)
	}
}
