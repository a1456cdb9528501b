package dnssec

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
	"math/big"
)

// The real root zone signs with RSA/SHA-256 (algorithm 8); this file adds
// that algorithm next to the ECDSA-P256 default. Public keys follow the
// RFC 3110 wire format: a length-prefixed exponent followed by the modulus.

// rsaKeyBits is the modulus size for generated RSA keys, matching the root
// zone's ZSK size.
const rsaKeyBits = 2048

// GenerateRSAKey creates an RSA/SHA-256 (algorithm 8) key pair.
func GenerateRSAKey(flags uint16, rnd io.Reader) (*Key, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	priv, err := rsa.GenerateKey(rnd, rsaKeyBits)
	if err != nil {
		return nil, fmt.Errorf("dnssec: generate RSA key: %w", err)
	}
	return &Key{Flags: flags, RSA: priv}, nil
}

// rsaPublicKeyBytes encodes the public key per RFC 3110 §2.
func rsaPublicKeyBytes(pub *rsa.PublicKey) []byte {
	exp := big.NewInt(int64(pub.E)).Bytes()
	var out []byte
	if len(exp) <= 255 {
		out = append(out, byte(len(exp)))
	} else {
		out = append(out, 0, byte(len(exp)>>8), byte(len(exp)))
	}
	out = append(out, exp...)
	return append(out, pub.N.Bytes()...)
}

// parseRSAPublicKey decodes the RFC 3110 wire format.
func parseRSAPublicKey(data []byte) (*rsa.PublicKey, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("dnssec: RSA key too short")
	}
	expLen := int(data[0])
	off := 1
	if expLen == 0 {
		if len(data) < 3 {
			return nil, fmt.Errorf("dnssec: RSA key too short")
		}
		expLen = int(data[1])<<8 | int(data[2])
		off = 3
	}
	if len(data) < off+expLen+1 {
		return nil, fmt.Errorf("dnssec: RSA key truncated")
	}
	exp := new(big.Int).SetBytes(data[off : off+expLen])
	if !exp.IsInt64() || exp.Int64() > 1<<31 || exp.Int64() < 3 {
		return nil, fmt.Errorf("dnssec: implausible RSA exponent")
	}
	return &rsa.PublicKey{
		N: new(big.Int).SetBytes(data[off+expLen:]),
		E: int(exp.Int64()),
	}, nil
}

// signRSA produces the PKCS#1 v1.5 signature over digest.
func signRSA(priv *rsa.PrivateKey, digest []byte) ([]byte, error) {
	return rsa.SignPKCS1v15(rand.Reader, priv, cryptoSHA256, digest)
}

// verifyRSA checks a PKCS#1 v1.5 signature.
func verifyRSA(keyData, digest, sig []byte) error {
	pub, err := parseRSAPublicKey(keyData)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBogusSignature, err)
	}
	if err := rsa.VerifyPKCS1v15(pub, cryptoSHA256, digest, sig); err != nil {
		return ErrBogusSignature
	}
	return nil
}
