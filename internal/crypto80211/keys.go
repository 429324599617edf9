package crypto80211

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"sync"

	"politewifi/internal/dot11"
)

// PBKDF2 derives keyLen bytes from the password and salt using
// HMAC-SHA1, as WPA2 does for the pairwise master key
// (PMK = PBKDF2(passphrase, ssid, 4096, 32)).
func PBKDF2(password, salt []byte, iter, keyLen int) []byte {
	// One keyed HMAC for the whole derivation: Reset restores the
	// keyed state and Sum appends into a reused buffer, so the 4096
	// iterations per block run without per-iteration allocation.
	h := hmac.New(sha1.New, password)
	hLen := h.Size()
	numBlocks := (keyLen + hLen - 1) / hLen
	dk := make([]byte, 0, numBlocks*hLen)
	u := make([]byte, 0, hLen)
	for block := 1; block <= numBlocks; block++ {
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(block))
		h.Reset()
		h.Write(salt)
		h.Write(idx[:])
		u = h.Sum(u[:0])
		dk = append(dk, u...)
		t := dk[len(dk)-hLen:]
		for i := 1; i < iter; i++ {
			h.Reset()
			h.Write(u)
			u = h.Sum(u[:0])
			for j := range t {
				t[j] ^= u[j]
			}
		}
	}
	return dk[:keyLen]
}

// PMK derives the pairwise master key from a WPA2-Personal
// passphrase and SSID.
func PMK(passphrase, ssid string) []byte {
	return PBKDF2([]byte(passphrase), []byte(ssid), 4096, 32)
}

// PSK is a WPA2-Personal passphrase shared by the stations of one
// network, the way wpa_supplicant precomputes psk= from a passphrase:
// the AP and every client holding the same handle run PBKDF2 once
// between them instead of once each. PMK derives on the first call
// for an SSID and returns the stored key after that; the handle
// remembers only the last SSID. A nil *PSK means an open network.
type PSK struct {
	passphrase string

	mu          sync.Mutex
	ssid        string
	pmk         []byte
	derivations int
}

// NewPSK returns a key handle for the passphrase.
func NewPSK(passphrase string) *PSK { return &PSK{passphrase: passphrase} }

// PMK returns PMK(passphrase, ssid), deriving it only if the handle
// does not already hold it. Callers must not modify the result.
func (k *PSK) PMK(ssid string) []byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.pmk == nil || k.ssid != ssid {
		k.pmk = PMK(k.passphrase, ssid)
		k.ssid = ssid
		k.derivations++
	}
	return k.pmk
}

// Derivations reports how many times the handle has run PBKDF2.
func (k *PSK) Derivations() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.derivations
}

// PRF implements the IEEE 802.11 PRF-n (HMAC-SHA1 based) used for
// pairwise key expansion. label is a NUL-terminated application
// label; n is the number of output bytes.
func PRF(key []byte, label string, data []byte, n int) []byte {
	var out []byte
	for i := byte(0); len(out) < n; i++ {
		h := hmac.New(sha1.New, key)
		h.Write([]byte(label))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{i})
		out = h.Sum(out)
	}
	return out[:n]
}

// PTK derives the 48-byte pairwise transient key (KCK||KEK||TK) from
// the PMK, the two MAC addresses, and the two handshake nonces.
func PTK(pmk []byte, aa, spa dot11.MAC, anonce, snonce []byte) []byte {
	minMAC, maxMAC := aa, spa
	if bytes.Compare(spa[:], aa[:]) < 0 {
		minMAC, maxMAC = spa, aa
	}
	minN, maxN := anonce, snonce
	if bytes.Compare(snonce, anonce) < 0 {
		minN, maxN = snonce, anonce
	}
	data := make([]byte, 0, 12+len(minN)+len(maxN))
	data = append(data, minMAC[:]...)
	data = append(data, maxMAC[:]...)
	data = append(data, minN...)
	data = append(data, maxN...)
	return PRF(pmk, "Pairwise key expansion", data, 48)
}

// TKFromPTK extracts the 16-byte temporal key (bytes 32..48) used by
// CCMP from a 48-byte PTK.
func TKFromPTK(ptk []byte) []byte { return ptk[32:48] }

// Handshake performs the simulator's condensed 4-way handshake: given
// a shared PMK, the authenticator and supplicant addresses, and two
// nonces, both sides arrive at the same CCMP session keys. It returns
// one Session per direction seeded with the same TK, mirroring how a
// real PTK protects both directions of the link.
func Handshake(pmk []byte, ap, sta dot11.MAC, anonce, snonce []byte) (apSess, staSess *Session, err error) {
	ptk := PTK(pmk, ap, sta, anonce, snonce)
	tk := TKFromPTK(ptk)
	apSess, err = NewSession(tk)
	if err != nil {
		return nil, nil, err
	}
	staSess, err = NewSession(tk)
	if err != nil {
		return nil, nil, err
	}
	return apSess, staSess, nil
}
