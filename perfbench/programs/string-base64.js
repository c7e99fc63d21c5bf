var toBase64Table = 'ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/';
var base64Pad = '=';
function toBase64(data) {
  var result = '';
  var length = data.length;
  var i;
  for (i = 0; i < (length - 2); i += 3) {
    result += toBase64Table.charAt(data.charCodeAt(i) >> 2);
    result += toBase64Table.charAt(((data.charCodeAt(i) & 0x03) << 4) | (data.charCodeAt(i+1) >> 4));
    result += toBase64Table.charAt(((data.charCodeAt(i+1) & 0x0f) << 2) | (data.charCodeAt(i+2) >> 6));
    result += toBase64Table.charAt(data.charCodeAt(i+2) & 0x3f);
  }
  return result;
}
var str = '';
for (var i = 0; i < 819; i++)
  str += String.fromCharCode((25 * (i * i) + 3 * i) % 256);
var check = 0;
for (var round = 0; round < 24; round++) {
  var encoded = toBase64(str);
  check += encoded.length + encoded.charCodeAt(round);
}
print(check);
