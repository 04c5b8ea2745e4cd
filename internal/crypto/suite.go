package crypto

// Meter observes cryptographic work. The discrete-event simulator installs a
// meter to charge virtual CPU time for each operation at 2001-era costs
// (MD5 digests, UMAC32 MACs); real deployments leave it nil.
type Meter interface {
	// OnDigest is called once per digest computation with the number of
	// bytes hashed.
	OnDigest(bytes int)
	// OnMAC is called once per MAC computation or verification with the
	// number of bytes authenticated.
	OnMAC(bytes int)
}

// Suite bundles a node's key table with an optional work meter and provides
// the metered operations the protocol engine uses. A nil *Suite is invalid;
// a Suite with a nil meter performs no accounting.
//
// A Suite is engine-local: its cached digest state makes its methods unsafe
// for concurrent use (the key table it wraps remains concurrency-safe).
type Suite struct {
	keys   *KeyTable
	meter  Meter
	hasher Hasher
}

// NewSuite returns a Suite over the given key table. meter may be nil.
func NewSuite(keys *KeyTable, meter Meter) *Suite {
	return &Suite{keys: keys, meter: meter}
}

// Keys exposes the underlying key table (for key-exchange handling).
func (s *Suite) Keys() *KeyTable { return s.keys }

// Self returns the node id of the suite's owner.
func (s *Suite) Self() int { return s.keys.Self() }

func (s *Suite) meterDigest(pieces [][]byte) {
	if s.meter == nil {
		return
	}
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	s.meter.OnDigest(n)
}

func (s *Suite) meterMAC(count int, pieces [][]byte) {
	if s.meter == nil || count == 0 {
		return
	}
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	for i := 0; i < count; i++ {
		s.meter.OnMAC(n)
	}
}

// Digest computes a metered digest over the concatenated pieces.
func (s *Suite) Digest(pieces ...[]byte) Digest {
	s.meterDigest(pieces)
	return s.hasher.Digest(pieces...)
}

// Auth computes a metered authenticator addressed to replicas [0, n).
func (s *Suite) Auth(n int, content ...[]byte) Authenticator {
	s.meterMAC(n-1, content)
	return AuthenticatorFor(s.keys, n, content...)
}

// AuthInto is Auth filling dst's capacity (see AuthenticatorInto); callers
// cycling one scratch slice authenticate without allocating. The result
// must not be retained past the caller's reuse of the scratch.
func (s *Suite) AuthInto(dst Authenticator, n int, content ...[]byte) Authenticator {
	s.meterMAC(n-1, content)
	return AuthenticatorInto(s.keys, dst, n, content...)
}

// VerifyAuth verifies this node's entry of an authenticator from sender.
func (s *Suite) VerifyAuth(sender int, a Authenticator, content ...[]byte) bool {
	s.meterMAC(1, content)
	return VerifyEntry(s.keys, sender, a, content...)
}

// MasterAuth computes a metered authenticator under long-term master keys
// (used by new-key and recovery messages).
func (s *Suite) MasterAuth(n int, content ...[]byte) Authenticator {
	s.meterMAC(n-1, content)
	return MasterAuthenticatorFor(s.keys, n, content...)
}

// VerifyMasterAuth verifies this node's entry of a master-key
// authenticator from sender.
func (s *Suite) VerifyMasterAuth(sender int, a Authenticator, content ...[]byte) bool {
	s.meterMAC(1, content)
	return VerifyMasterEntry(s.keys, sender, a, content...)
}

// MAC computes a metered point-to-point MAC toward receiver.
func (s *Suite) MAC(receiver int, content ...[]byte) (MAC, bool) {
	s.meterMAC(1, content)
	return SingleMAC(s.keys, receiver, content...)
}

// VerifyMAC verifies a metered point-to-point MAC from sender.
func (s *Suite) VerifyMAC(sender int, tag MAC, content ...[]byte) bool {
	s.meterMAC(1, content)
	return VerifySingle(s.keys, sender, tag, content...)
}
