package nameservice

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/vm"
	"repro/internal/wire"
)

// TCP protocol: length-prefixed frames, each a request or reply.
// Requests carry a client-chosen id; replies echo it. Blocking
// lookups block on the server side, so a reply may arrive long after
// the request and out of order with other replies.

type nsOp uint8

const (
	opRegisterSite nsOp = iota + 1
	opLookupSite
	opRegisterName
	opLookupName
	opRegisterClass
	opLookupClass
	opReply
	opKeepAlive
	opRegisterEndpoint
	opEndpoints
	opShardMap // fetch the current shard map (version + members)
)

const maxNSFrame = 1 << 20

func writeFrame(conn net.Conn, mu *sync.Mutex, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	mu.Lock()
	defer mu.Unlock()
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload)
	return err
}

func readFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxNSFrame {
		return nil, fmt.Errorf("nameservice: oversized frame (%d bytes)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Server exposes the authority over TCP.
type Server struct {
	svc *Sharded
	ln  net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewServer starts serving svc on addr.
func NewServer(svc *Sharded, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{svc: svc, ln: ln}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	var wmu sync.Mutex
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		r := wire.NewReader(frame)
		op, err := r.Byte()
		if err != nil {
			return
		}
		id, err := r.U()
		if err != nil {
			return
		}
		reply := func(build func(w *wire.Writer), rpcErr error) {
			var w wire.Writer
			w.Byte(byte(opReply))
			w.U(id)
			// Every reply carries the server's shard-map version: it is
			// how client lease caches learn a transition happened
			// without polling.
			w.U(s.svc.MapVersion())
			if rpcErr != nil {
				w.S(rpcErr.Error())
			} else {
				w.S("")
				if build != nil {
					build(&w)
				}
			}
			_ = writeFrame(conn, &wmu, w.Bytes())
		}
		switch nsOp(op) {
		case opRegisterSite:
			name, _ := r.S()
			site, _ := r.U()
			node, _ := r.U()
			epoch, err2 := r.U()
			if err2 != nil {
				return
			}
			reply(nil, s.svc.RegisterSite(ctx, name, uint32(site), uint32(node), uint32(epoch)))
		case opKeepAlive:
			siteName, _ := r.S()
			epoch, err2 := r.U()
			if err2 != nil {
				return
			}
			reply(nil, s.svc.KeepAlive(ctx, siteName, uint32(epoch)))
		case opRegisterEndpoint:
			node, _ := r.U()
			kind, _ := r.S()
			addr, err2 := r.S()
			if err2 != nil {
				return
			}
			reply(nil, s.svc.RegisterEndpoint(ctx, uint32(node), kind, addr))
		case opEndpoints:
			kind, err2 := r.S()
			if err2 != nil {
				return
			}
			eps, err3 := s.svc.Endpoints(ctx, kind)
			reply(func(w *wire.Writer) {
				w.U(uint64(len(eps)))
				// Deterministic encoding order keeps replies comparable
				// in tests; the map round-trips either way.
				nodes := make([]uint32, 0, len(eps))
				for node := range eps {
					nodes = append(nodes, node)
				}
				sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
				for _, node := range nodes {
					w.U(uint64(node))
					w.S(eps[node])
				}
			}, err3)
		case opRegisterName:
			siteName, _ := r.S()
			idName, _ := r.S()
			heap, _ := r.U()
			sig, err2 := r.S()
			if err2 != nil {
				return
			}
			reply(nil, s.svc.RegisterName(ctx, siteName, idName, uint32(heap), sig))
		case opRegisterClass:
			siteName, _ := r.S()
			class, _ := r.S()
			sig, err2 := r.S()
			if err2 != nil {
				return
			}
			reply(nil, s.svc.RegisterClass(ctx, siteName, class, sig))
		case opShardMap:
			m, err3 := s.svc.ShardMap(ctx)
			reply(func(w *wire.Writer) {
				w.B(EncodeShardMap(m))
			}, err3)
		case opLookupSite:
			name, err2 := r.S()
			if err2 != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				site, node, err3 := s.svc.LookupSite(ctx, name)
				reply(func(w *wire.Writer) {
					w.U(uint64(site))
					w.U(uint64(node))
				}, err3)
			}()
		case opLookupName:
			siteName, _ := r.S()
			idName, err2 := r.S()
			if err2 != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				ref, sig, err3 := s.svc.LookupName(ctx, siteName, idName)
				reply(func(w *wire.Writer) {
					w.U(uint64(ref.Heap))
					w.U(uint64(ref.Site))
					w.U(uint64(ref.Node))
					w.S(sig)
				}, err3)
			}()
		case opLookupClass:
			siteName, _ := r.S()
			class, err2 := r.S()
			if err2 != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				nc, sig, err3 := s.svc.LookupClass(ctx, siteName, class)
				reply(func(w *wire.Writer) {
					w.S(nc.Name)
					w.U(uint64(nc.Site))
					w.U(uint64(nc.Node))
					w.S(sig)
				}, err3)
			}()
		default:
			return
		}
	}
}

// Client is a Service backed by a remote Server. A lost connection is
// redialed in the background with exponential backoff, and calls that
// fail in transit (write error, reply channel closed, not yet
// reconnected) are retried until their context expires — server-side
// errors (unknown name, signature clash) stay terminal.
type Client struct {
	addr string

	mu        sync.Mutex
	conn      net.Conn
	redialing bool
	wmu       sync.Mutex
	nextID    uint64
	pending   map[uint64]chan *wire.Reader
	closed    bool
	done      chan struct{} // closed by Close; unblocks the redial loop's sleep

	// Shard-map tracking: every reply carries the server's map version;
	// the full map is fetched lazily and cached until the version moves
	// past it.
	mapVer    atomic.Uint64
	mapMu     sync.Mutex
	cachedMap *ShardMap
}

// Transient call failures — safe to retry because the request either
// never reached the server or its (idempotent) reply was lost.
var (
	errNotConnected = errors.New("nameservice: not connected")
	errConnLost     = errors.New("nameservice: connection lost")
)

var _ Service = (*Client)(nil)

// Dial connects to a name-service server.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr, pending: map[uint64]chan *wire.Reader{}, done: make(chan struct{})}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
	go c.readLoop(conn)
	return nil
}

// Close shuts the client down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	if c.conn != nil {
		return c.conn.Close()
	}
	return nil
}

func (c *Client) readLoop(conn net.Conn) {
	for {
		frame, err := readFrame(conn)
		if err != nil {
			c.mu.Lock()
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			if c.conn == conn {
				c.conn = nil
			}
			redial := !c.closed && !c.redialing
			if redial {
				c.redialing = true
			}
			c.mu.Unlock()
			if redial {
				go c.redialLoop()
			}
			return
		}
		r := wire.NewReader(frame)
		op, err := r.Byte()
		if err != nil || nsOp(op) != opReply {
			continue
		}
		id, err := r.U()
		if err != nil {
			continue
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
}

// redialLoop re-establishes the connection with jittered exponential
// backoff. The jitter matters: every client of a restarted server lost
// its connection at the same instant, and without it they all redial
// in lockstep.
func (c *Client) redialLoop() {
	b := backoff.New(backoff.Policy{Initial: 50 * time.Millisecond, Max: 2 * time.Second})
	for {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err == nil {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				conn.Close()
				return
			}
			c.conn = conn
			c.redialing = false
			c.mu.Unlock()
			go c.readLoop(conn)
			return
		}
		if !b.SleepChan(c.done) {
			return
		}
	}
}

// call sends a request and waits for its reply, retrying transient
// transport failures with backoff until ctx expires.
func (c *Client) call(ctx context.Context, build func(w *wire.Writer, id uint64)) (*wire.Reader, error) {
	b := backoff.New(backoff.Policy{Initial: 25 * time.Millisecond, Max: time.Second})
	for {
		r, err := c.callOnce(ctx, build)
		if err == nil || !isTransient(err) {
			return r, err
		}
		if serr := b.Sleep(ctx); serr != nil {
			return nil, fmt.Errorf("%w (last: %v)", serr, err)
		}
	}
}

func isTransient(err error) bool {
	if errors.Is(err, errNotConnected) || errors.Is(err, errConnLost) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

// callOnce sends a request over the current connection and waits for
// its reply.
func (c *Client) callOnce(ctx context.Context, build func(w *wire.Writer, id uint64)) (*wire.Reader, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("nameservice: client closed")
	}
	conn := c.conn
	if conn == nil {
		c.mu.Unlock()
		return nil, errNotConnected
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *wire.Reader, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	var w wire.Writer
	build(&w, id)
	if err := writeFrame(conn, &c.wmu, w.Bytes()); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case r, ok := <-ch:
		if !ok {
			return nil, errConnLost
		}
		ver, err := r.U()
		if err != nil {
			return nil, err
		}
		c.noteMapVersion(ver)
		msg, err := r.S()
		if err != nil {
			return nil, err
		}
		if msg != "" {
			return nil, remoteError(msg)
		}
		return r, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// noteMapVersion folds a reply's shard-map version into the client's
// monotonic view.
func (c *Client) noteMapVersion(ver uint64) {
	for {
		cur := c.mapVer.Load()
		if ver <= cur || c.mapVer.CompareAndSwap(cur, ver) {
			return
		}
	}
}

// MapVersion implements MapSource: the latest shard-map version
// observed on any reply (0 until the first reply).
func (c *Client) MapVersion() uint64 { return c.mapVer.Load() }

// ShardMap implements MapSource: fetch the server's current map,
// cached until the observed version moves past it — so per-lookup map
// reads (the breaker's routing) stay local.
func (c *Client) ShardMap(ctx context.Context) (*ShardMap, error) {
	c.mapMu.Lock()
	if m := c.cachedMap; m != nil && m.Version >= c.mapVer.Load() {
		c.mapMu.Unlock()
		return m, nil
	}
	c.mapMu.Unlock()
	r, err := c.call(ctx, func(w *wire.Writer, id uint64) {
		w.Byte(byte(opShardMap))
		w.U(id)
	})
	if err != nil {
		return nil, err
	}
	raw, err := r.B()
	if err != nil {
		return nil, err
	}
	m, err := DecodeShardMap(raw)
	if err != nil {
		return nil, err
	}
	c.noteMapVersion(m.Version)
	c.mapMu.Lock()
	if c.cachedMap == nil || m.Version > c.cachedMap.Version {
		c.cachedMap = m
	} else {
		m = c.cachedMap
	}
	c.mapMu.Unlock()
	return m, nil
}

// remoteError rehydrates typed errors that crossed the wire as
// strings, so errors.Is keeps working against a TCP-backed service.
func remoteError(msg string) error {
	if strings.HasPrefix(msg, ErrNameExpired.Error()) {
		return fmt.Errorf("%w%s", ErrNameExpired, strings.TrimPrefix(msg, ErrNameExpired.Error()))
	}
	return errors.New(msg)
}

// registerCtx bounds register calls: they retry through reconnects but
// must not hang a site launch forever against a dead server.
func registerCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, 30*time.Second)
}

// RegisterSite implements Service.
func (c *Client) RegisterSite(ctx context.Context, name string, site, node, epoch uint32) error {
	ctx, cancel := registerCtx(ctx)
	defer cancel()
	_, err := c.call(ctx, func(w *wire.Writer, id uint64) {
		w.Byte(byte(opRegisterSite))
		w.U(id)
		w.S(name)
		w.U(uint64(site))
		w.U(uint64(node))
		w.U(uint64(epoch))
	})
	return err
}

// KeepAlive implements Service.
func (c *Client) KeepAlive(ctx context.Context, siteName string, epoch uint32) error {
	ctx, cancel := registerCtx(ctx)
	defer cancel()
	_, err := c.call(ctx, func(w *wire.Writer, id uint64) {
		w.Byte(byte(opKeepAlive))
		w.U(id)
		w.S(siteName)
		w.U(uint64(epoch))
	})
	return err
}

// LookupSite implements Service.
func (c *Client) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	r, err := c.call(ctx, func(w *wire.Writer, id uint64) {
		w.Byte(byte(opLookupSite))
		w.U(id)
		w.S(name)
	})
	if err != nil {
		return 0, 0, err
	}
	site, err := r.U()
	if err != nil {
		return 0, 0, err
	}
	node, err := r.U()
	if err != nil {
		return 0, 0, err
	}
	return uint32(site), uint32(node), nil
}

// RegisterName implements Service.
func (c *Client) RegisterName(ctx context.Context, siteName, id string, heap uint32, sig string) error {
	ctx, cancel := registerCtx(ctx)
	defer cancel()
	_, err := c.call(ctx, func(w *wire.Writer, rid uint64) {
		w.Byte(byte(opRegisterName))
		w.U(rid)
		w.S(siteName)
		w.S(id)
		w.U(uint64(heap))
		w.S(sig)
	})
	return err
}

// LookupName implements Service.
func (c *Client) LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error) {
	r, err := c.call(ctx, func(w *wire.Writer, rid uint64) {
		w.Byte(byte(opLookupName))
		w.U(rid)
		w.S(siteName)
		w.S(id)
	})
	if err != nil {
		return vm.NetRef{}, "", err
	}
	h, err := r.U()
	if err != nil {
		return vm.NetRef{}, "", err
	}
	s, err := r.U()
	if err != nil {
		return vm.NetRef{}, "", err
	}
	n, err := r.U()
	if err != nil {
		return vm.NetRef{}, "", err
	}
	sig, err := r.S()
	if err != nil {
		return vm.NetRef{}, "", err
	}
	return vm.NetRef{Heap: uint32(h), Site: uint32(s), Node: uint32(n)}, sig, nil
}

// RegisterClass implements Service.
func (c *Client) RegisterClass(ctx context.Context, siteName, class string, sig string) error {
	ctx, cancel := registerCtx(ctx)
	defer cancel()
	_, err := c.call(ctx, func(w *wire.Writer, rid uint64) {
		w.Byte(byte(opRegisterClass))
		w.U(rid)
		w.S(siteName)
		w.S(class)
		w.S(sig)
	})
	return err
}

// RegisterEndpoint implements Service.
func (c *Client) RegisterEndpoint(ctx context.Context, node uint32, kind, addr string) error {
	ctx, cancel := registerCtx(ctx)
	defer cancel()
	_, err := c.call(ctx, func(w *wire.Writer, rid uint64) {
		w.Byte(byte(opRegisterEndpoint))
		w.U(rid)
		w.U(uint64(node))
		w.S(kind)
		w.S(addr)
	})
	return err
}

// Endpoints implements Service.
func (c *Client) Endpoints(ctx context.Context, kind string) (map[uint32]string, error) {
	r, err := c.call(ctx, func(w *wire.Writer, rid uint64) {
		w.Byte(byte(opEndpoints))
		w.U(rid)
		w.S(kind)
	})
	if err != nil {
		return nil, err
	}
	n, err := r.U()
	if err != nil {
		return nil, err
	}
	out := make(map[uint32]string, n)
	for i := uint64(0); i < n; i++ {
		node, err := r.U()
		if err != nil {
			return nil, err
		}
		addr, err := r.S()
		if err != nil {
			return nil, err
		}
		out[uint32(node)] = addr
	}
	return out, nil
}

// LookupClass implements Service.
func (c *Client) LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error) {
	r, err := c.call(ctx, func(w *wire.Writer, rid uint64) {
		w.Byte(byte(opLookupClass))
		w.U(rid)
		w.S(siteName)
		w.S(class)
	})
	if err != nil {
		return vm.NetClass{}, "", err
	}
	name, err := r.S()
	if err != nil {
		return vm.NetClass{}, "", err
	}
	s, err := r.U()
	if err != nil {
		return vm.NetClass{}, "", err
	}
	n, err := r.U()
	if err != nil {
		return vm.NetClass{}, "", err
	}
	sig, err := r.S()
	if err != nil {
		return vm.NetClass{}, "", err
	}
	return vm.NetClass{Name: name, Site: uint32(s), Node: uint32(n)}, sig, nil
}
