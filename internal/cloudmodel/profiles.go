package cloudmodel

import (
	"fmt"
	"math"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// Profile bundles everything needed to emulate one cloud's network
// path: a shaper factory (the QoS mechanism), a virtual-NIC model
// (latency/retransmission behaviour) and a nominal line rate.
type Profile struct {
	// Cloud is the provider key: "ec2", "gce" or "hpccloud".
	Cloud string
	// Instance is the flavour this profile was built for.
	Instance string
	// LineRateGbps is the nominal NIC speed.
	LineRateGbps float64
	// VNIC is the latency/retransmission model.
	VNIC netem.VNICModel
	// NewShaper builds a fresh egress shaper, representing a newly
	// allocated VM. Each call incarnates new per-VM parameters, which
	// is exactly the paper's "fresh set of VMs" reset.
	NewShaper func(src *simrand.Source) netem.Shaper
}

// EC2Profile models a c5-family instance: an ENA vNIC (jumbo frames,
// sub-millisecond RTT) behind the token-bucket QoS reverse-engineered
// in Section 3.3. instanceName must be one of the c5 catalog entries.
func EC2Profile(instanceName string) (Profile, error) {
	var spec tokenbucket.InstanceSpec
	found := false
	for _, s := range tokenbucket.C5Family() {
		if s.Name == instanceName {
			spec, found = s, true
			break
		}
	}
	if !found {
		return Profile{}, fmt.Errorf("cloudmodel: unknown EC2 instance %q", instanceName)
	}
	return Profile{
		Cloud:        "ec2",
		Instance:     instanceName,
		LineRateGbps: spec.Params.HighGbps,
		VNIC:         netem.EC2VNIC(),
		NewShaper: func(src *simrand.Source) netem.Shaper {
			p := spec.Incarnate(src)
			sh, err := netem.NewBucketShaper(p)
			if err != nil {
				// Incarnate clamps into validity; reaching here is a
				// programming error, not an input error.
				panic(fmt.Sprintf("cloudmodel: incarnated invalid params: %v", err))
			}
			return sh
		},
	}, nil
}

// gceShaper models Google Cloud's network path. GCE enforces a
// per-core bandwidth QoS (2 Gbps per vCPU). The paper observed that
// longer streams achieve better, more stable performance, and
// attributes this to Andromeda's flow placement: idle flows are routed
// through dedicated gateways and migrate onto fast paths only as they
// stay busy. gceShaper reproduces this mechanistically: each send
// burst starts from a randomly drawn "cold" fraction of the QoS cap
// and warms toward the cap over rampSec of continuous transfer, with
// multiplicative noise redrawn every noisePeriodSec.
type gceShaper struct {
	capGbps        float64
	rampSec        float64
	noisePeriodSec float64
	noiseSigma     float64
	coldFloor      float64 // lowest cold-start fraction
	src            *simrand.Source

	warmSec    float64 // continuous transfer time so far
	coldFrac   float64
	noise      float64
	untilDraw  float64
	everActive bool
}

func newGCEShaper(cores int, src *simrand.Source) *gceShaper {
	g := &gceShaper{
		capGbps:        2 * float64(cores),
		rampSec:        20,
		noisePeriodSec: 10,
		noiseSigma:     0.02,
		coldFloor:      0.65,
		src:            src,
	}
	g.redrawCold()
	g.noise = 1 + src.Normal(0, g.noiseSigma)
	g.untilDraw = g.noisePeriodSec
	return g
}

func (g *gceShaper) redrawCold() {
	// Most cold starts land close to the cap; a minority land deep in
	// the tail (the long 5-30 tail of Figure 5).
	if g.src.Bernoulli(0.15) {
		g.coldFrac = g.src.Uniform(g.coldFloor, 0.85)
	} else {
		g.coldFrac = g.src.Uniform(0.85, 0.98)
	}
	g.warmSec = 0
}

func (g *gceShaper) capacity() float64 {
	warm := math.Min(1, g.warmSec/g.rampSec)
	frac := g.coldFrac + (1-g.coldFrac)*warm
	c := g.capGbps * frac * g.noise
	if c < 0 {
		c = 0
	}
	return c
}

// Rate implements netem.Shaper.
func (g *gceShaper) Rate(demand float64) float64 {
	if demand <= 0 {
		return 0
	}
	return math.Min(demand, g.capacity())
}

// Transfer implements netem.Shaper.
func (g *gceShaper) Transfer(demand, dt float64) float64 {
	if dt < 0 {
		panic("cloudmodel: negative duration")
	}
	moved := 0.0
	for dt > 1e-12 {
		step := math.Min(dt, g.untilDraw)
		// Warm-up progresses while transferring.
		moved += g.Rate(demand) * step
		g.warmSec += step
		g.untilDraw -= step
		dt -= step
		if g.untilDraw <= 1e-12 {
			g.noise = 1 + g.src.Normal(0, g.noiseSigma)
			g.untilDraw = g.noisePeriodSec
		}
	}
	g.everActive = true
	return moved
}

// Idle implements netem.Shaper. Idling long enough resets the flow to
// cold: Andromeda parks idle flows on gateway paths.
func (g *gceShaper) Idle(dt float64) {
	if dt < 0 {
		panic("cloudmodel: negative duration")
	}
	if dt >= 5 && g.everActive {
		g.redrawCold()
	}
	// Noise keeps evolving while idle.
	g.untilDraw -= dt
	for g.untilDraw <= 0 {
		g.noise = 1 + g.src.Normal(0, g.noiseSigma)
		g.untilDraw += g.noisePeriodSec
	}
}

// NextTransition implements netem.Shaper.
func (g *gceShaper) NextTransition(demand float64) float64 {
	next := g.untilDraw
	if g.warmSec < g.rampSec {
		// Capacity is continuously ramping; bound steps so the fluid
		// simulation tracks the ramp.
		next = math.Min(next, 1)
	}
	return next
}

// GCEProfile models an n1-style instance with the given core count:
// per-core 2 Gbps QoS, TSO-based vNIC (millisecond RTT, write-size-
// dependent retransmissions), and flow warm-up dynamics.
func GCEProfile(cores int) (Profile, error) {
	if cores <= 0 {
		return Profile{}, fmt.Errorf("cloudmodel: GCE needs positive core count, got %d", cores)
	}
	return Profile{
		Cloud:        "gce",
		Instance:     fmt.Sprintf("%d-core", cores),
		LineRateGbps: 2 * float64(cores),
		VNIC:         netem.GCEVNIC(),
		NewShaper: func(src *simrand.Source) netem.Shaper {
			return newGCEShaper(cores, src)
		},
	}, nil
}

// hpcCloudDist is the HPCCloud full-speed bandwidth distribution from
// Figure 4: an 8-core VM pair ranging 7.7-10.4 Gbps with most mass in
// the 9-10 Gbps band — no QoS mechanism, just contention on a small
// (~100 machine) cluster where there is little statistical
// multiplexing to smooth competing traffic.
var hpcCloudDist = simrand.MustQuantileDist(
	[]float64{0.01, 0.25, 0.50, 0.75, 0.99},
	[]float64{7.7, 8.9, 9.4, 9.8, 10.4},
)

// HPCCloudProfile models an 8-core HPCCloud VM: an unshaped path
// whose capacity is redrawn from the Figure 4 distribution every
// resample interval (the paper measured sample-to-sample swings up to
// 33% at 10-second granularity). Smaller VMs scale the distribution
// down proportionally to their core count (the cloud offered 2-, 4-
// and 8-core flavours).
func HPCCloudProfile(cores int) (Profile, error) {
	switch cores {
	case 2, 4, 8:
	default:
		return Profile{}, fmt.Errorf("cloudmodel: HPCCloud offered 2-, 4- or 8-core VMs, not %d", cores)
	}
	scale := float64(cores) / 8
	probs, values := hpcCloudDist.Knots()
	for i := range values {
		values[i] *= scale
	}
	dist := simrand.MustQuantileDist(probs, values)
	// EC2-like virtio NIC without enhanced networking: modest base
	// RTT, no TSO inflation beyond the MTU.
	vnic := netem.VNICModel{
		Name:               "hpccloud-virtio",
		MTUBytes:           1500,
		BaseRTTms:          0.35,
		RTTJitterFrac:      0.3,
		NormalQueuePackets: 16,
		DriverQueueBytes:   1_000_000,
		RetransBaseProb:    5e-6,
	}
	return Profile{
		Cloud:        "hpccloud",
		Instance:     fmt.Sprintf("%d-core", cores),
		LineRateGbps: 10 * scale,
		VNIC:         vnic,
		NewShaper: func(src *simrand.Source) netem.Shaper {
			sh, err := netem.NewSampledShaper(dist, 10, src)
			if err != nil {
				panic(fmt.Sprintf("cloudmodel: building HPCCloud shaper: %v", err))
			}
			return sh
		},
	}, nil
}
