package node

import (
	"encoding/binary"
	"fmt"

	"vab/internal/link"
)

// Downlink command set. Commands arrive as link.FrameCmd frames whose
// payload starts with an opcode byte; the node acknowledges over the
// backscatter uplink with a link.FrameAck echoing the opcode. The set is
// deliberately tiny — each additional opcode is decode logic that must run
// on microwatts.
const (
	// CmdPing elicits an ack and nothing else: the liveness probe.
	CmdPing byte = 0x01
	// CmdSetInterval sets the node's minimum interval between responses in
	// seconds (uint16 argument): polls arriving sooner are silently
	// declined, stretching the node's energy. Zero answers every poll.
	CmdSetInterval byte = 0x02
	// CmdMute silences the node for the given number of seconds (uint16
	// argument): the operator's tool for deconflicting sites or taking a
	// node out of a survey without diving for it.
	CmdMute byte = 0x03
)

// PingPayload builds a ping command payload.
func PingPayload() []byte { return []byte{CmdPing} }

// SetIntervalPayload builds a reporting-interval command payload.
func SetIntervalPayload(seconds uint16) []byte {
	p := []byte{CmdSetInterval, 0, 0}
	binary.BigEndian.PutUint16(p[1:], seconds)
	return p
}

// MutePayload builds a mute command payload.
func MutePayload(seconds uint16) []byte {
	p := []byte{CmdMute, 0, 0}
	binary.BigEndian.PutUint16(p[1:], seconds)
	return p
}

// ReportInterval returns the configured minimum interval between responses
// in seconds (0 = answer every poll).
func (n *Node) ReportInterval() float64 { return n.reportInterval }

// Muted reports whether the node is currently muted.
func (n *Node) Muted() bool { return n.clock < n.muteUntil }

// Clock returns the node's elapsed-time counter in seconds (advanced by
// Harvest — the node has no other notion of time).
func (n *Node) Clock() float64 { return n.clock }

// HandleCommand processes a downlink command frame addressed to this node
// (or broadcast) and returns the acknowledgement reflection waveform, or
// nil when the command is for someone else, the node lacks energy, or the
// command mutes the node (mute is deliberately unacknowledged: the point is
// radio silence). Malformed commands addressed to this node return an
// error. Like HandleQuery's, the waveform is valid until the node's next
// response.
func (n *Node) HandleCommand(f *link.Frame) ([]float64, error) {
	if f == nil || f.Type != link.FrameCmd {
		return nil, fmt.Errorf("node: not a command frame")
	}
	if f.Addr != n.cfg.Addr && f.Addr != link.BroadcastAddr {
		return nil, nil
	}
	if !n.cfg.Harvest.Operational() || n.Muted() {
		return nil, nil
	}
	if len(f.Payload) == 0 {
		return nil, fmt.Errorf("node: empty command payload")
	}
	op := f.Payload[0]
	arg16 := func() (uint16, error) {
		if len(f.Payload) < 3 {
			return 0, fmt.Errorf("node: command 0x%02x needs a uint16 argument", op)
		}
		return binary.BigEndian.Uint16(f.Payload[1:3]), nil
	}
	ack := true
	switch op {
	case CmdPing:
		// Nothing to do beyond the ack.
	case CmdSetInterval:
		v, err := arg16()
		if err != nil {
			return nil, err
		}
		n.reportInterval = float64(v)
	case CmdMute:
		v, err := arg16()
		if err != nil {
			return nil, err
		}
		n.muteUntil = n.clock + float64(v)
		ack = false
	default:
		return nil, fmt.Errorf("node: unknown command 0x%02x", op)
	}
	n.stats.CommandsApplied++
	if !ack {
		return nil, nil
	}

	resp := &link.Frame{Type: link.FrameAck, Addr: n.cfg.Addr, Seq: n.seq, Payload: []byte{op}}
	n.seq++
	chips, err := n.cfg.Codec.EncodeFrame(resp)
	if err != nil {
		return nil, fmt.Errorf("node: encode ack: %w", err)
	}
	burstSec := float64(n.mod.BurstSamples(len(chips))) / n.cfg.PHY.SampleRate
	needed := n.cfg.Budget.Backscatter * burstSec
	if n.cfg.Harvest.StoredEnergy() < needed {
		n.stats.BrownOuts++
		return nil, nil
	}
	n.stats.EnergySpent += n.cfg.Harvest.Step(0, needed/burstSec, burstSec)
	gamma, err := n.mod.GammaWaveformInto(n.gammaBuf, chips)
	if err != nil {
		return nil, fmt.Errorf("node: modulate ack: %w", err)
	}
	n.gammaBuf = gamma
	return gamma, nil
}
