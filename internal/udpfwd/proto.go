// Package udpfwd implements the Semtech UDP packet-forwarder protocol
// (GWMP v2) that LoRaWAN gateways use to exchange packets with a network
// server over the backhaul: PUSH_DATA uplinks with JSON rxpk payloads,
// PULL_DATA keepalives opening the downlink path, and PULL_RESP downlinks.
//
// AlphaWAN's live stack (cmd/alphawan-server and cmd/alphawan-gwsim) runs
// this protocol over real UDP sockets; the wire format follows the Semtech
// reference implementation so the bridge could interoperate with a real
// packet forwarder.
package udpfwd

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"github.com/alphawan/alphawan/internal/lora"
)

// PacketType is the GWMP message identifier.
type PacketType byte

// GWMP packet types.
const (
	PushData PacketType = 0
	PushAck  PacketType = 1
	PullData PacketType = 2
	PullResp PacketType = 3
	PullAck  PacketType = 4
	TXAck    PacketType = 5
)

func (t PacketType) String() string {
	switch t {
	case PushData:
		return "PUSH_DATA"
	case PushAck:
		return "PUSH_ACK"
	case PullData:
		return "PULL_DATA"
	case PullResp:
		return "PULL_RESP"
	case PullAck:
		return "PULL_ACK"
	case TXAck:
		return "TX_ACK"
	}
	return fmt.Sprintf("PacketType(%d)", byte(t))
}

// ProtocolVersion is GWMP protocol version 2.
const ProtocolVersion = 2

// EUI is a gateway's 64-bit extended unique identifier.
type EUI uint64

func (e EUI) String() string { return fmt.Sprintf("%016x", uint64(e)) }

// RXPK is one received packet in a PUSH_DATA payload, mirroring the
// Semtech JSON schema.
type RXPK struct {
	Time string  `json:"time,omitempty"` // ISO 8601 receive time
	Tmst uint32  `json:"tmst"`           // gateway internal timestamp (µs)
	Freq float64 `json:"freq"`           // MHz
	Chan int     `json:"chan"`           // RX chain index
	RFCh int     `json:"rfch"`
	Stat int     `json:"stat"` // CRC status: 1 ok
	Modu string  `json:"modu"` // "LORA"
	Datr string  `json:"datr"` // e.g. "SF7BW125"
	CodR string  `json:"codr"` // e.g. "4/5"
	RSSI int     `json:"rssi"` // dBm, rounded
	LSNR float64 `json:"lsnr"` // dB
	Size int     `json:"size"`
	Data string  `json:"data"` // base64 PHYPayload
}

// TXPK is one downlink packet in a PULL_RESP payload.
type TXPK struct {
	Imme bool    `json:"imme"` // send immediately
	Tmst uint32  `json:"tmst,omitempty"`
	Freq float64 `json:"freq"`
	RFCh int     `json:"rfch"`
	Powe int     `json:"powe"` // dBm
	Modu string  `json:"modu"`
	Datr string  `json:"datr"`
	CodR string  `json:"codr"`
	Size int     `json:"size"`
	Data string  `json:"data"`
}

// pushPayload is the JSON body of PUSH_DATA.
type pushPayload struct {
	RXPK []RXPK `json:"rxpk,omitempty"`
	Stat *Stat  `json:"stat,omitempty"`
}

// Stat is the periodic gateway status report.
type Stat struct {
	Time string  `json:"time"`
	RXNb int     `json:"rxnb"` // packets received
	RXOK int     `json:"rxok"` // packets with valid CRC
	RXFW int     `json:"rxfw"` // packets forwarded
	ACKR float64 `json:"ackr"` // ack ratio %
	DWNb int     `json:"dwnb"` // downlinks received
	TXNb int     `json:"txnb"` // downlinks transmitted
}

type pullRespPayload struct {
	TXPK TXPK `json:"txpk"`
}

// Packet is one decoded GWMP datagram.
type Packet struct {
	Type  PacketType
	Token uint16
	// EUI is present on PUSH_DATA, PULL_DATA, and TX_ACK.
	EUI EUI
	// RXPKs and Status are set for PUSH_DATA.
	RXPKs  []RXPK
	Status *Stat
	// TX is set for PULL_RESP.
	TX *TXPK
}

// DatrString renders a data rate in the Semtech "SFxBWy" notation.
func DatrString(d lora.DR) string {
	return fmt.Sprintf("SF%dBW125", int(d.SF()))
}

// ParseDatr parses "SFxBWy" notation back into a data rate.
func ParseDatr(s string) (lora.DR, error) {
	var sf, bw int
	if _, err := fmt.Sscanf(s, "SF%dBW%d", &sf, &bw); err != nil {
		return 0, fmt.Errorf("udpfwd: bad datr %q: %w", s, err)
	}
	if bw != 125 {
		return 0, fmt.Errorf("udpfwd: unsupported bandwidth in %q", s)
	}
	f := lora.SF(sf)
	if !f.Valid() {
		return 0, fmt.Errorf("udpfwd: bad SF in %q", s)
	}
	return lora.DRFromSF(f), nil
}

// EncodeData base64-encodes a PHYPayload for the JSON body.
func EncodeData(raw []byte) string { return base64.StdEncoding.EncodeToString(raw) }

// DecodeData reverses EncodeData.
func DecodeData(s string) ([]byte, error) { return base64.StdEncoding.DecodeString(s) }

// Marshal serializes a packet to the GWMP wire format.
func (p *Packet) Marshal() ([]byte, error) {
	buf := make([]byte, 4, 64)
	buf[0] = ProtocolVersion
	binary.BigEndian.PutUint16(buf[1:3], p.Token)
	buf[3] = byte(p.Type)
	switch p.Type {
	case PushData:
		buf = appendEUI(buf, p.EUI)
		body, err := json.Marshal(pushPayload{RXPK: p.RXPKs, Stat: p.Status})
		if err != nil {
			return nil, err
		}
		buf = append(buf, body...)
	case PullData, TXAck:
		buf = appendEUI(buf, p.EUI)
	case PushAck, PullAck:
		// header only
	case PullResp:
		if p.TX == nil {
			return nil, fmt.Errorf("udpfwd: PULL_RESP without txpk")
		}
		body, err := json.Marshal(pullRespPayload{TXPK: *p.TX})
		if err != nil {
			return nil, err
		}
		buf = append(buf, body...)
	default:
		return nil, fmt.Errorf("udpfwd: cannot marshal %v", p.Type)
	}
	return buf, nil
}

func appendEUI(buf []byte, e EUI) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(e))
	return append(buf, b[:]...)
}

// Unmarshal parses a GWMP datagram.
func Unmarshal(raw []byte) (*Packet, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("udpfwd: datagram too short (%d bytes)", len(raw))
	}
	if raw[0] != ProtocolVersion {
		return nil, fmt.Errorf("udpfwd: unsupported protocol version %d", raw[0])
	}
	p := &Packet{
		Token: binary.BigEndian.Uint16(raw[1:3]),
		Type:  PacketType(raw[3]),
	}
	rest := raw[4:]
	switch p.Type {
	case PushData:
		if len(rest) < 8 {
			return nil, fmt.Errorf("udpfwd: PUSH_DATA missing EUI")
		}
		p.EUI = EUI(binary.BigEndian.Uint64(rest[:8]))
		var body pushPayload
		if err := json.Unmarshal(rest[8:], &body); err != nil {
			return nil, fmt.Errorf("udpfwd: PUSH_DATA body: %w", err)
		}
		p.RXPKs, p.Status = body.RXPK, body.Stat
	case PullData, TXAck:
		if len(rest) < 8 {
			return nil, fmt.Errorf("udpfwd: %v missing EUI", p.Type)
		}
		p.EUI = EUI(binary.BigEndian.Uint64(rest[:8]))
	case PushAck, PullAck:
		// header only
	case PullResp:
		var body pullRespPayload
		if err := json.Unmarshal(rest, &body); err != nil {
			return nil, fmt.Errorf("udpfwd: PULL_RESP body: %w", err)
		}
		p.TX = &body.TXPK
	default:
		return nil, fmt.Errorf("udpfwd: unknown packet type %d", byte(p.Type))
	}
	return p, nil
}
