package udpfwd

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Forwarder is the gateway side: it pushes uplinks to the server with
// acknowledged retransmission and keeps the downlink path open with
// PULL_DATA keepalives.
type Forwarder struct {
	EUI  EUI
	conn *net.UDPConn

	mu        sync.Mutex
	token     uint16
	ackWait   map[uint16]chan struct{}
	downlinks chan TXPK
	closed    chan struct{}
	once      sync.Once
	// impair, when non-nil, makes every outbound datagram traverse a
	// lossy backhaul (see SetImpairment).
	impair *impairState

	// RetryInterval and MaxRetries govern PUSH_DATA retransmission.
	RetryInterval time.Duration
	MaxRetries    int
}

// NewForwarder dials the server address and starts the receive loop plus a
// keepalive ticker.
func NewForwarder(eui EUI, serverAddr string, keepalive time.Duration) (*Forwarder, error) {
	ua, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		return nil, fmt.Errorf("udpfwd: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("udpfwd: %w", err)
	}
	f := &Forwarder{
		EUI: eui, conn: conn,
		ackWait:       make(map[uint16]chan struct{}),
		downlinks:     make(chan TXPK, 64),
		closed:        make(chan struct{}),
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    3,
	}
	go f.readLoop()
	go f.keepaliveLoop(keepalive)
	return f, nil
}

// Downlinks returns the channel of PULL_RESP downlinks from the server.
func (f *Forwarder) Downlinks() <-chan TXPK { return f.downlinks }

// Close shuts the forwarder down, first flushing any datagram the
// impairment's reorder swap is holding.
func (f *Forwarder) Close() error {
	f.mu.Lock()
	st := f.impair
	f.mu.Unlock()
	if st != nil {
		st.flushHeld(f)
	}
	f.once.Do(func() { close(f.closed) })
	return f.conn.Close()
}

func (f *Forwarder) nextToken() uint16 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.token++
	return f.token
}

func (f *Forwarder) readLoop() {
	defer close(f.downlinks)
	buf := make([]byte, 65536)
	for {
		n, err := f.conn.Read(buf)
		if err != nil {
			return
		}
		p, err := Unmarshal(buf[:n])
		if err != nil {
			continue
		}
		switch p.Type {
		case PushAck, PullAck:
			f.mu.Lock()
			if ch, ok := f.ackWait[p.Token]; ok {
				close(ch)
				delete(f.ackWait, p.Token)
			}
			f.mu.Unlock()
		case PullResp:
			if p.TX != nil {
				// Echo the token back as TX_ACK so the server can account
				// in-flight downlinks (BatchBridge.FlushDownlinks).
				ackPkt := Packet{Type: TXAck, Token: p.Token, EUI: f.EUI}
				if raw, err := ackPkt.Marshal(); err == nil {
					f.write(raw)
				}
				select {
				case f.downlinks <- *p.TX:
				case <-f.closed:
					return
				}
			}
		}
	}
}

func (f *Forwarder) keepaliveLoop(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	// Open the downlink path immediately, then on every tick.
	f.sendPullData()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			f.sendPullData()
		case <-f.closed:
			return
		}
	}
}

func (f *Forwarder) sendPullData() {
	p := Packet{Type: PullData, Token: f.nextToken(), EUI: f.EUI}
	raw, err := p.Marshal()
	if err != nil {
		return
	}
	f.write(raw)
}

// Push sends a PUSH_DATA with the given rxpks and waits for the PUSH_ACK,
// retransmitting up to MaxRetries times. It returns an error if the server
// never acknowledges.
func (f *Forwarder) Push(rxpks []RXPK, stat *Stat) error {
	token := f.nextToken()
	p := Packet{Type: PushData, Token: token, EUI: f.EUI, RXPKs: rxpks, Status: stat}
	raw, err := p.Marshal()
	if err != nil {
		return err
	}
	ack := make(chan struct{})
	f.mu.Lock()
	f.ackWait[token] = ack
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.ackWait, token)
		f.mu.Unlock()
	}()

	for attempt := 0; attempt <= f.MaxRetries; attempt++ {
		if err := f.write(raw); err != nil {
			return err
		}
		select {
		case <-ack:
			return nil
		case <-time.After(f.RetryInterval):
		case <-f.closed:
			return fmt.Errorf("udpfwd: forwarder closed")
		}
	}
	return fmt.Errorf("udpfwd: no PUSH_ACK after %d attempts", f.MaxRetries+1)
}
