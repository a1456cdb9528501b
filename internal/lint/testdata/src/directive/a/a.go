// Package a exercises the //rootlint: annotation grammar itself. The
// diagnostic lands on the directive comment's own line, so each expectation
// rides inside the same comment (only one line comment fits on a line).
package a

//rootlint:frobnicate // want "unknown rootlint directive"
var a = 1

var b = 2 //rootlint:allow wallclock // want "allow directive needs a reason"

var c = 3 //rootlint:allow clockskew: fixture // want "unknown allow category"

var d = 4 //rootlint:allow : because // want "allow directive names no category"

var r = 17 //rootlint:allow deadcode // want "allow directive needs a reason"

// Well-formed forms parse clean: a reasoned single-category allow, a
// reasoned multi-category allow, and a bare hotpath marker.
var e = 5 //rootlint:allow wallclock: fixture exercises the well-formed trailing form

var f = 6 //rootlint:allow wallclock,globalrand: fixture exercises the multi-category form

//rootlint:hotpath
func g() {}

// Guard-regime grammar (lockcheck's directives): the Directive analyzer
// validates argument shape. Malformed forms diagnose on their own line —
// the trailing text after the verb is part of the (bad) argument, and the
// empty-argument cases park the expectation in a leading block comment.

//rootlint:guardedby bad..name // want "is not a field name"
var h = 7

/* // want "guardedby needs a mutex field name" */ //rootlint:guardedby
var i = 8

//rootlint:atomic now // want "atomic takes no argument"
var j = 9

//rootlint:immutable-after-start soon // want "immutable-after-start takes no argument"
var k = 10

//rootlint:shardconfined run;drain // want "is not a function name"
var l = 11

/* // want "shardconfined needs at least one root function" */ //rootlint:shardconfined
var m = 12

// Well-formed guard forms parse clean: a plain mutex name, a Type.method
// root list, and the bare no-argument regimes.

//rootlint:guardedby mu
var n = 13

//rootlint:shardconfined Loop.Run,drain
var o = 14

//rootlint:atomic
var p = 15

//rootlint:immutable-after-start
var q = 16
